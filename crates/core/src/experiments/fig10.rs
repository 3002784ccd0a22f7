//! Figure 10: input-size sensitivity (§IV-E, Xeon Gold 6130). Every region
//! is tuned on size-2, the resulting configuration is re-applied on size-1,
//! and the loss against a native size-1 tuning is reported:
//! `L = S(size-1, best-conf(size-1)) − S(size-1, best-conf(size-2))`.
//! The paper measures a 1.51× native vs 1.46× transferred average (≈0.05
//! loss), strongly region-dependent.

use crate::experiments::{f3, size_transfer, FigureReport};
use irnuma_sim::{config_space, default_config, Machine, MicroArch};
use irnuma_workloads::all_regions;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Row {
    pub region: String,
    pub native_gain: f64,
    pub transferred_gain: f64,
    pub loss: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10 {
    pub rows: Vec<Fig10Row>,
    pub mean_native: f64,
    pub mean_transferred: f64,
    pub mean_loss: f64,
}

/// `calls` mirrors the paper's sampled execution (10 calls per region).
pub fn run(calls: u32) -> Fig10 {
    let span = irnuma_obs::span!("exp.fig10", calls = calls);
    let m = Machine::new(MicroArch::XeonGold);
    let configs = config_space(&m);
    let def = default_config(&m);
    let def_idx = configs.iter().position(|c| *c == def).expect("default in space");

    // Attach-style propagation: workers install the experiment's context on
    // their thread, so the per-region spans (and anything the simulator
    // opens beneath them) nest under `exp.fig10` in the trace forest.
    let ctx = span.ctx();
    let rows: Vec<Fig10Row> = all_regions()
        .into_par_iter()
        .map(|r| {
            let _scope = ctx.attach();
            let _rs = irnuma_obs::span!("exp.fig10_region", region = r.name.as_str());
            let t = size_transfer(&r, &m, calls);
            let native_gain = t.size1[def_idx] / t.size1[t.native];
            let transferred_gain = t.size1[def_idx] / t.size1[t.transferred];
            Fig10Row {
                region: r.name,
                native_gain,
                transferred_gain,
                loss: native_gain - transferred_gain,
            }
        })
        .collect();

    let n = rows.len() as f64;
    Fig10 {
        mean_native: rows.iter().map(|r| r.native_gain).sum::<f64>() / n,
        mean_transferred: rows.iter().map(|r| r.transferred_gain).sum::<f64>() / n,
        mean_loss: rows.iter().map(|r| r.loss).sum::<f64>() / n,
        rows,
    }
}

impl Fig10 {
    pub fn report(&self) -> FigureReport {
        let mut r = FigureReport::new(
            "fig10",
            "Speedup losses on size-1 when tuned on size-2 (Xeon Gold; lower is better)",
            &["region", "native_gain", "transferred_gain", "loss"],
        );
        for row in &self.rows {
            r.push_row(vec![
                row.region.clone(),
                f3(row.native_gain),
                f3(row.transferred_gain),
                f3(row.loss),
            ]);
        }
        r.note(format!(
            "native {:.2}x vs transferred {:.2}x, mean loss {:.3} (paper: 1.51x vs 1.46x, 0.05 loss)",
            self.mean_native, self.mean_transferred, self.mean_loss
        ));
        r
    }
}
