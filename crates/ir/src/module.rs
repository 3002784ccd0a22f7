//! Modules and globals.

use crate::function::Function;
use crate::types::Ty;
use serde::{Deserialize, Serialize};

/// Index of a global variable within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GlobalId(pub u32);

impl GlobalId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A module-level array variable (the kernels' shared data).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Global {
    pub name: String,
    /// Element type of the array.
    pub elem: Ty,
    /// Number of elements.
    pub count: u64,
}

impl Global {
    /// Total footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.elem.size_bytes() * self.count
    }
}

/// A translation unit: globals + functions. The workload suite emits one
/// module per benchmark; `extract` carves per-region modules out of it.
///
/// Equality and hashing are exact and structural: arenas, detached
/// instructions and block numbering all count, and float immediates compare
/// by their bits (`-0.0 != 0.0`). Two equal modules are the same input to
/// every pass, which is what lets the dataset build reuse pass results.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Module {
    pub name: String,
    pub globals: Vec<Global>,
    pub functions: Vec<Function>,
}

impl Module {
    pub fn new(name: impl Into<String>) -> Self {
        Module { name: name.into(), globals: Vec::new(), functions: Vec::new() }
    }

    /// Add a global array; returns its id.
    pub fn add_global(&mut self, name: impl Into<String>, elem: Ty, count: u64) -> GlobalId {
        self.globals.push(Global { name: name.into(), elem, count });
        GlobalId((self.globals.len() - 1) as u32)
    }

    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Add a function; returns a mutable reference for further construction.
    pub fn add_function(&mut self, f: Function) -> &mut Function {
        self.functions.push(f);
        self.functions.last_mut().expect("just pushed")
    }

    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals.iter().position(|g| g.name == name).map(|i| GlobalId(i as u32))
    }

    /// Names of all OpenMP-outlined regions in the module.
    pub fn outlined_regions(&self) -> Vec<&str> {
        self.functions
            .iter()
            .filter(|f| f.kind == crate::function::FunctionKind::OmpOutlined)
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Total number of attached instructions across all functions.
    pub fn num_instrs(&self) -> usize {
        self.functions.iter().map(|f| f.num_attached()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionKind;

    #[test]
    fn globals_by_name_and_size() {
        let mut m = Module::new("m");
        let g = m.add_global("data", Ty::F64, 1024);
        assert_eq!(m.global(g).size_bytes(), 8192);
        assert_eq!(m.global_by_name("data"), Some(g));
        assert_eq!(m.global_by_name("nope"), None);
    }

    #[test]
    fn outlined_regions_filter() {
        let mut m = Module::new("m");
        m.add_function(Function::new("main", vec![], Ty::Void, FunctionKind::Normal));
        m.add_function(Function::new(
            ".omp_outlined.k0",
            vec![],
            Ty::Void,
            FunctionKind::OmpOutlined,
        ));
        m.add_function(Function::new(
            "omp_get_thread_num",
            vec![],
            Ty::I32,
            FunctionKind::Declaration,
        ));
        assert_eq!(m.outlined_regions(), vec![".omp_outlined.k0"]);
        assert!(m.function("main").is_some());
        assert!(m.function_mut(".omp_outlined.k0").is_some());
    }
}
