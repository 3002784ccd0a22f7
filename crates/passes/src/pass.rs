//! The pass framework: a [`Pass`] trait, a name → pass registry, and a
//! [`PassManager`] that runs sequences with optional post-pass verification.

use irnuma_ir::{verify_module, Module, VerifyError};
use std::fmt;

/// A module-level transformation.
pub trait Pass: Sync + Send {
    /// Stable flag name (what appears in a flag sequence).
    fn name(&self) -> &'static str;

    /// Run over the module; return whether anything changed.
    fn run(&self, m: &mut Module) -> bool;
}

/// Error raised when a sequence names an unknown pass or a pass breaks the
/// verifier.
#[derive(Debug)]
pub enum PassError {
    UnknownPass(String),
    Broken { pass: &'static str, err: VerifyError },
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::UnknownPass(n) => write!(f, "unknown pass `{n}`"),
            PassError::Broken { pass, err } => write!(f, "pass `{pass}` broke the module: {err}"),
        }
    }
}

impl std::error::Error for PassError {}

/// All registered passes, in the order they appear in the default pipeline
/// catalogue. The returned objects are stateless and shareable.
pub fn registry() -> Vec<Box<dyn Pass>> {
    use crate::passes::*;
    vec![
        Box::new(SimplifyCfg),
        Box::new(Dce),
        Box::new(ConstProp),
        Box::new(InstCombine),
        Box::new(Reassociate),
        Box::new(Gvn),
        Box::new(StoreForward),
        Box::new(Dse),
        Box::new(PhiSimplify),
        Box::new(Mem2Reg),
        Box::new(Licm),
        Box::new(LoopUnroll::default()),
        Box::new(Inline::default()),
        Box::new(Sink),
    ]
}

/// Look up a pass by flag name.
pub fn find_pass(name: &str) -> Option<Box<dyn Pass>> {
    registry().into_iter().find(|p| p.name() == name)
}

/// Runs pass sequences over modules.
pub struct PassManager {
    /// Verify the module after every pass (used by all tests; cheap enough
    /// to leave on for dataset generation too).
    pub verify_each: bool,
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::new(cfg!(debug_assertions))
    }
}

impl PassManager {
    pub fn new(verify_each: bool) -> Self {
        PassManager { verify_each }
    }

    /// Apply one pass to `m`, then verify it when `verify_each` is set.
    /// Returns whether the pass reported a change. Both [`PassManager::run`]
    /// and [`crate::PassMemo`] apply every pass through this step.
    pub fn apply(&self, pass: &dyn Pass, m: &mut Module) -> Result<bool, PassError> {
        let changed = if irnuma_obs::telemetry_enabled() {
            let t0 = std::time::Instant::now();
            let changed = pass.run(m);
            // Per-pass timing under a dynamic name (`pass.gvn_ns`, ...);
            // dynamic names go through the registry, not the macro cache.
            irnuma_obs::registry()
                .histogram(&format!("pass.{}_ns", pass.name()))
                .record_duration(t0.elapsed());
            changed
        } else {
            pass.run(m)
        };
        if self.verify_each {
            verify_module(m).map_err(|err| PassError::Broken { pass: pass.name(), err })?;
        }
        Ok(changed)
    }

    /// End a sequence: compact arenas and drop empty blocks so downstream
    /// consumers (printer, graphs) see tight ids, then verify when
    /// `verify_each` is set.
    pub fn finish(&self, m: &mut Module) -> Result<(), PassError> {
        for f in &mut m.functions {
            if !f.is_declaration() {
                // Drop detached instructions first: they may still hold
                // stale block references that compact_blocks would trip on.
                f.compact();
                f.compact_blocks();
            }
        }
        if self.verify_each {
            verify_module(m).map_err(|err| PassError::Broken { pass: "compact", err })?;
        }
        Ok(())
    }

    /// Run the named sequence over `m`, then [`PassManager::finish`] it.
    /// Returns the number of passes that reported a change.
    pub fn run(&self, m: &mut Module, sequence: &[String]) -> Result<usize, PassError> {
        let mut span = irnuma_obs::span!("passes.run", passes = sequence.len());
        let passes = registry();
        let mut changed = 0;
        for name in sequence {
            let pass = passes[pass_index(&passes, name)?].as_ref();
            changed += usize::from(self.apply(pass, m)?);
        }
        span.field("changed", changed);
        self.finish(m)?;
        Ok(changed)
    }
}

/// Position of the pass named `name` in `passes` (a [`registry`]).
pub(crate) fn pass_index(passes: &[Box<dyn Pass>], name: &str) -> Result<usize, PassError> {
    passes
        .iter()
        .position(|p| p.name() == name)
        .ok_or_else(|| PassError::UnknownPass(name.to_string()))
}

/// Convenience: run a sequence of `&str` names with default settings.
///
/// ```
/// use irnuma_ir::builder::{iconst, FunctionBuilder};
/// use irnuma_ir::{FunctionKind, Module, Ty};
///
/// let mut m = Module::new("demo");
/// let mut b = FunctionBuilder::new("f", vec![], Ty::I64, FunctionKind::Normal);
/// let x = b.add(Ty::I64, iconst(2), iconst(3));
/// let dead = b.mul(Ty::I64, x, iconst(100));
/// let _ = dead;
/// b.ret(Some(x));
/// m.add_function(b.finish());
///
/// irnuma_passes::run_sequence(&mut m, &["constprop", "dce"]).unwrap();
/// // 2 + 3 folded, the unused multiply removed: only `ret 5` remains.
/// assert_eq!(m.num_instrs(), 1);
/// ```
pub fn run_sequence(m: &mut Module, names: &[&str]) -> Result<usize, PassError> {
    let seq: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    PassManager::default().run(m, &seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let names: Vec<_> = registry().iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate pass names");
        assert!(names.len() >= 14, "expected at least 14 passes, got {}", names.len());
    }

    #[test]
    fn unknown_pass_is_reported() {
        let mut m = Module::new("m");
        let err = PassManager::new(true).run(&mut m, &["does-not-exist".to_string()]).unwrap_err();
        assert!(matches!(err, PassError::UnknownPass(_)));
    }

    #[test]
    fn every_o3_flag_resolves() {
        for name in crate::flags::o3_sequence() {
            assert!(find_pass(name).is_some(), "O3 references unknown pass {name}");
        }
    }
}
