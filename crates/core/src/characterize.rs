//! Characterization: filling the PUM's statistical models from measurements.
//!
//! The paper's memory and branch models are *statistical*: average hit
//! rates per cache size, average misprediction ratio. Those numbers come
//! from measuring a reference execution (the paper used on-board runs; this
//! reproduction uses the cycle-accurate board model in `tlm-pcam`) on a
//! *training* input, and are then used to estimate *other* inputs — that
//! separation is what makes Tables 2/3 a genuine accuracy experiment.
//!
//! This module is deliberately independent of where the numbers come from:
//! it consumes plain measured rates.

use std::collections::BTreeMap;

use crate::pum::{MemoryPath, Pum};

/// A characterized table: cache size in bytes → measured average hit rate.
pub type HitRateTable = BTreeMap<u32, f64>;

/// Replaces the statistical parameters of `pum` with measured values.
///
/// - `icache_rates` / `dcache_rates`: per-size hit rates (sizes missing
///   from the table keep their previous value);
/// - `mispredict_rate`: measured branch misprediction ratio, applied if the
///   PUM has a branch model.
///
/// Paths that are [`MemoryPath::Hardwired`] or [`MemoryPath::Uncached`] are
/// untouched — they have no statistical parameters.
pub fn apply_measurements(
    pum: &mut Pum,
    icache_rates: &HitRateTable,
    dcache_rates: &HitRateTable,
    mispredict_rate: Option<f64>,
) {
    apply_rates(&mut pum.memory.ifetch, icache_rates);
    apply_rates(&mut pum.memory.data, dcache_rates);
    if let (Some(model), Some(rate)) = (&mut pum.branch, mispredict_rate) {
        model.miss_rate = rate.clamp(0.0, 1.0);
    }
}

fn apply_rates(path: &mut MemoryPath, rates: &HitRateTable) {
    if let MemoryPath::Cached(cache) = path {
        for (&size, &rate) in rates {
            cache.hit_rates.insert(size, rate.clamp(0.0, 1.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn apply_measurements_overrides_placeholders() {
        let mut pum = library::microblaze_like(8 << 10, 4 << 10);
        let mut irates = HitRateTable::new();
        irates.insert(8 << 10, 0.987);
        let mut drates = HitRateTable::new();
        drates.insert(4 << 10, 0.9);
        apply_measurements(&mut pum, &irates, &drates, Some(0.23));
        let crate::pum::MemoryPath::Cached(ic) = &pum.memory.ifetch else {
            panic!("cached ifetch");
        };
        assert_eq!(ic.hit_rates[&(8 << 10)], 0.987);
        let crate::pum::MemoryPath::Cached(dc) = &pum.memory.data else {
            panic!("cached data");
        };
        assert_eq!(dc.hit_rates[&(4 << 10)], 0.9);
        assert_eq!(pum.branch.as_ref().expect("branch model").miss_rate, 0.23);
        pum.validate().expect("still valid");
    }

    #[test]
    fn hardwired_paths_are_untouched() {
        let mut pum = library::custom_hw("hw", 2, 2);
        let mut rates = HitRateTable::new();
        rates.insert(1024, 0.5);
        apply_measurements(&mut pum, &rates, &rates, Some(0.9));
        assert!(pum.branch.is_none());
        assert!(matches!(pum.memory.ifetch, MemoryPath::Hardwired));
    }

    #[test]
    fn rates_are_clamped_to_unit_interval() {
        let mut pum = library::microblaze_like(8 << 10, 4 << 10);
        let mut rates = HitRateTable::new();
        rates.insert(8 << 10, 1.7);
        apply_measurements(&mut pum, &rates, &HitRateTable::new(), Some(-0.5));
        pum.validate().expect("clamped values stay valid");
        assert_eq!(pum.branch.as_ref().expect("branch model").miss_rate, 0.0);
    }
}
