//! Block-frequency profiling: an [`ExecHook`] that counts basic-block
//! entries, the raw material for hotspot attribution and for
//! profile-weighted cycle prediction (counts times
//! `TimedModule::cycles` in `tlm-core`).

use crate::interp::ExecHook;
use crate::ir::Module;
use crate::{BlockId, FuncId};

/// Per-block execution counts, shaped like the module
/// (`counts[func][block]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    counts: Vec<Vec<u64>>,
}

impl BlockProfile {
    /// An all-zero profile shaped for `module`.
    pub fn new(module: &Module) -> BlockProfile {
        BlockProfile { counts: module.functions.iter().map(|f| vec![0; f.blocks.len()]).collect() }
    }

    /// Entries recorded for one block.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range for the profiled module.
    pub fn count(&self, func: FuncId, block: BlockId) -> u64 {
        self.counts[func.0 as usize][block.0 as usize]
    }

    /// Merges another profile (e.g. from a different process instance of
    /// the same module) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &BlockProfile) {
        assert_eq!(self.counts.len(), other.counts.len(), "profiles are for different modules");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            assert_eq!(a.len(), b.len(), "profiles are for different modules");
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }
}

/// The collecting hook.
#[derive(Debug)]
pub struct ProfileHook<'a> {
    profile: &'a mut BlockProfile,
}

impl<'a> ProfileHook<'a> {
    /// Wraps a profile for one interpreter run.
    pub fn new(profile: &'a mut BlockProfile) -> ProfileHook<'a> {
        ProfileHook { profile }
    }
}

impl ExecHook for ProfileHook<'_> {
    fn on_block(&mut self, func: FuncId, block: BlockId) {
        self.profile.counts[func.0 as usize][block.0 as usize] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Exec, Machine};
    use crate::lower::lower;

    fn module(src: &str) -> Module {
        lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    /// Total block entries of `profile` across every block of `m`.
    fn total(profile: &BlockProfile, m: &Module) -> u64 {
        m.functions_iter()
            .flat_map(|(fid, f)| f.blocks_iter().map(move |(bid, _)| profile.count(fid, bid)))
            .sum()
    }

    #[test]
    fn loop_bodies_dominate_the_profile() {
        let m = module(
            "void main() {
                int s = 0;
                for (int i = 0; i < 100; i++) { s += i; }
                out(s);
            }",
        );
        let main = m.function_id("main").expect("main");
        let mut profile = BlockProfile::new(&m);
        let mut machine = Machine::new(&m, main, &[]);
        assert_eq!(machine.run(&mut ProfileHook::new(&mut profile)), Exec::Done);
        let max = m.functions[main.0 as usize]
            .blocks_iter()
            .map(|(bid, _)| profile.count(main, bid))
            .max()
            .expect("has blocks");
        assert!(max >= 100, "loop blocks entered per iteration, got {max}");
        assert_eq!(
            total(&profile, &m),
            machine.stats().blocks,
            "profile agrees with interpreter counters"
        );
    }

    #[test]
    fn merge_adds_counts() {
        let m = module("void main() { out(1); }");
        let main = m.function_id("main").expect("main");
        let run = || {
            let mut p = BlockProfile::new(&m);
            let mut machine = Machine::new(&m, main, &[]);
            machine.run(&mut ProfileHook::new(&mut p));
            p
        };
        let mut a = run();
        let b = run();
        let before = total(&a, &m);
        a.merge(&b);
        assert_eq!(total(&a, &m), before * 2);
    }
}
