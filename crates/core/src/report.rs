//! Hotspot attribution: where does estimated time go?
//!
//! Combines a [`TimedModule`] (per-block estimated cycles) with a measured
//! [`BlockProfile`] (per-block entry counts) into a ranked list of the
//! blocks that dominate the estimate — the report a designer reads before
//! deciding *which* function to move to custom hardware (the decision the
//! paper's SW+N designs encode).

use tlm_cdfg::profile::BlockProfile;
use tlm_cdfg::{BlockId, FuncId};

use crate::annotate::TimedModule;

/// One line of the hotspot report.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// Owning function.
    pub func: FuncId,
    /// Function name.
    pub func_name: String,
    /// The block.
    pub block: BlockId,
    /// Times the block was entered.
    pub entries: u64,
    /// Estimated cycles per entry.
    pub cycles_each: u64,
    /// `entries × cycles_each`.
    pub cycles_total: u64,
    /// Fraction of the whole estimate, in `[0, 1]`.
    pub share: f64,
}

/// Ranks blocks by total estimated cycles under the given profile.
/// Blocks that were never entered are omitted.
///
/// # Panics
///
/// Panics if the profile's shape does not match the timed module.
pub fn hotspots(timed: &TimedModule, profile: &BlockProfile) -> Vec<Hotspot> {
    let module = timed.module();
    let grand_total: u64 = module
        .functions_iter()
        .flat_map(|(fid, f)| f.blocks_iter().map(move |(bid, _)| (fid, bid)))
        .map(|(fid, bid)| profile.count(fid, bid) * timed.cycles(fid, bid))
        .sum();
    let mut out = Vec::new();
    for (fid, func) in module.functions_iter() {
        for (bid, _) in func.blocks_iter() {
            let entries = profile.count(fid, bid);
            if entries == 0 {
                continue;
            }
            let cycles_each = timed.cycles(fid, bid);
            let cycles_total = entries * cycles_each;
            out.push(Hotspot {
                func: fid,
                func_name: func.name.clone(),
                block: bid,
                entries,
                cycles_each,
                cycles_total,
                share: if grand_total == 0 {
                    0.0
                } else {
                    cycles_total as f64 / grand_total as f64
                },
            });
        }
    }
    out.sort_by_key(|h| std::cmp::Reverse(h.cycles_total));
    out
}

/// Aggregates [`hotspots`] per function — the granularity HW-offload
/// decisions are made at.
pub fn function_shares(timed: &TimedModule, profile: &BlockProfile) -> Vec<(String, f64)> {
    let mut per_func: std::collections::BTreeMap<String, f64> = Default::default();
    for h in hotspots(timed, profile) {
        *per_func.entry(h.func_name).or_insert(0.0) += h.share;
    }
    let mut out: Vec<(String, f64)> = per_func.into_iter().collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("shares are finite"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate_uncached;
    use crate::library;
    use tlm_cdfg::interp::{Exec, Machine};
    use tlm_cdfg::ir::Module;
    use tlm_cdfg::profile::ProfileHook;

    fn setup(src: &str) -> (Module, TimedModule, BlockProfile) {
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        let timed = annotate_uncached(&module, &library::microblaze_like(8 << 10, 4 << 10))
            .expect("annotates");
        let main = module.function_id("main").expect("main");
        let mut profile = BlockProfile::new(&module);
        let mut machine = Machine::new(&module, main, &[]);
        assert_eq!(machine.run(&mut ProfileHook::new(&mut profile)), Exec::Done);
        (module, timed, profile)
    }

    const SRC: &str = "
        int heavy(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < n; j++) { s += i * j; }
            }
            return s;
        }
        int light(int x) { return x + 1; }
        void main() { out(heavy(24)); out(light(3)); }
    ";

    #[test]
    fn shares_sum_to_one_and_rank_correctly() {
        let (_m, timed, profile) = setup(SRC);
        let spots = hotspots(&timed, &profile);
        assert!(!spots.is_empty());
        let total: f64 = spots.iter().map(|h| h.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to {total}");
        // Sorted descending.
        assert!(spots.windows(2).all(|w| w[0].cycles_total >= w[1].cycles_total));
        // The inner-loop block of `heavy` dominates.
        assert_eq!(spots[0].func_name, "heavy");
        assert!(spots[0].entries >= 24 * 24);
    }

    #[test]
    fn function_aggregation_identifies_the_offload_candidate() {
        let (_m, timed, profile) = setup(SRC);
        let shares = function_shares(&timed, &profile);
        assert_eq!(shares[0].0, "heavy");
        assert!(shares[0].1 > 0.9, "heavy holds {:.3} of the estimate", shares[0].1);
        let light = shares.iter().find(|(n, _)| n == "light").expect("light ran");
        assert!(light.1 < 0.05);
    }

    #[test]
    fn never_entered_blocks_are_absent() {
        let (_m, timed, profile) =
            setup("void main() { if (0) { out(1); out(2); out(3); } out(0); }");
        for h in hotspots(&timed, &profile) {
            assert!(h.entries > 0);
        }
    }
}
