//! Shared clocks: PE occupancy and bus arbitration at transaction grain.

use std::cell::RefCell;
use std::rc::Rc;

use tlm_desim::SimTime;

use crate::rtos::RtosModel;

/// Tracks when a processing element is next free, serializing the processes
/// mapped to it. All times are simulated time.
#[derive(Debug)]
pub struct PeClock {
    /// Clock period of the PE.
    pub period: SimTime,
    free_at: SimTime,
    busy: SimTime,
    /// Optional RTOS overhead model.
    rtos: Option<RtosModel>,
    /// Index of the process that last occupied the PE.
    last_occupant: Option<usize>,
}

/// A shared handle to a [`PeClock`].
pub type SharedPe = Rc<RefCell<PeClock>>;

impl PeClock {
    /// Creates a clock for a PE with the given period.
    pub fn new(period: SimTime, rtos: Option<RtosModel>) -> SharedPe {
        Rc::new(RefCell::new(PeClock {
            period,
            free_at: SimTime::ZERO,
            busy: SimTime::ZERO,
            rtos,
            last_occupant: None,
        }))
    }

    /// Reserves the PE for `cycles` of computation by process `proc`,
    /// starting no earlier than `now`. Returns the completion time.
    pub fn reserve(&mut self, now: SimTime, proc: usize, cycles: u64) -> SimTime {
        let mut start = if self.free_at > now { self.free_at } else { now };
        if let (Some(rtos), Some(last)) = (&self.rtos, self.last_occupant) {
            if last != proc {
                let overhead = SimTime::from_cycles(rtos.context_switch_cycles, self.period);
                start += overhead;
                self.busy += overhead;
            }
        }
        let span = SimTime::from_cycles(cycles, self.period);
        let end = start + span;
        self.free_at = end;
        self.busy += span;
        self.last_occupant = Some(proc);
        end
    }

    /// Total busy time accumulated on this PE.
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Busy time expressed in PE cycles.
    pub fn busy_cycles(&self) -> u64 {
        self.busy.cycles(self.period)
    }
}

/// Tracks bus occupancy: a transfer reserves the bus for
/// `sync_overhead + words × cycles_per_word` bus cycles.
#[derive(Debug)]
pub struct BusClock {
    /// Bus clock period.
    pub period: SimTime,
    /// Arbitration/synchronisation overhead per transaction, in bus cycles.
    pub sync_overhead: u64,
    /// Transfer cost per 32-bit word, in bus cycles.
    pub cycles_per_word: u64,
    free_at: SimTime,
    busy: SimTime,
    transfers: u64,
}

/// A shared handle to a [`BusClock`].
pub type SharedBus = Rc<RefCell<BusClock>>;

impl BusClock {
    /// Creates a bus clock.
    pub fn new(period: SimTime, sync_overhead: u64, cycles_per_word: u64) -> SharedBus {
        Rc::new(RefCell::new(BusClock {
            period,
            sync_overhead,
            cycles_per_word,
            free_at: SimTime::ZERO,
            busy: SimTime::ZERO,
            transfers: 0,
        }))
    }

    /// Reserves the bus for a transfer of `words` starting no earlier than
    /// `now`; returns the completion time.
    pub fn reserve(&mut self, now: SimTime, words: u64) -> SimTime {
        let start = if self.free_at > now { self.free_at } else { now };
        let cycles = self.sync_overhead + words * self.cycles_per_word;
        let end = start + SimTime::from_cycles(cycles, self.period);
        self.free_at = end;
        self.busy += SimTime::from_cycles(cycles, self.period);
        self.transfers += 1;
        end
    }

    /// Total bus-busy time.
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Number of transfers arbitrated.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_reservations_serialize() {
        let pe = PeClock::new(SimTime::from_ns(10), None);
        let end1 = pe.borrow_mut().reserve(SimTime::ZERO, 0, 10);
        assert_eq!(end1, SimTime::from_ns(100));
        // Second process asks at time 0 but must queue behind the first.
        let end2 = pe.borrow_mut().reserve(SimTime::ZERO, 1, 5);
        assert_eq!(end2, SimTime::from_ns(150));
        assert_eq!(pe.borrow().busy_cycles(), 15);
    }

    #[test]
    fn idle_gaps_are_not_busy() {
        let pe = PeClock::new(SimTime::from_ns(10), None);
        pe.borrow_mut().reserve(SimTime::ZERO, 0, 1);
        pe.borrow_mut().reserve(SimTime::from_us(1), 0, 1);
        assert_eq!(pe.borrow().busy_cycles(), 2);
    }

    #[test]
    fn rtos_context_switch_overhead() {
        let rtos = RtosModel { context_switch_cycles: 50 };
        let pe = PeClock::new(SimTime::from_ns(10), Some(rtos));
        pe.borrow_mut().reserve(SimTime::ZERO, 0, 10);
        // Same process again: no switch.
        let end = pe.borrow_mut().reserve(SimTime::ZERO, 0, 10);
        assert_eq!(end, SimTime::from_cycles(10 + 10, SimTime::from_ns(10)));
        // Different process: one switch of 50 cycles.
        let end = pe.borrow_mut().reserve(SimTime::ZERO, 1, 10);
        assert_eq!(end, SimTime::from_cycles(10 + 10 + 50 + 10, SimTime::from_ns(10)));
    }

    #[test]
    fn bus_transfer_cost_and_contention() {
        let bus = BusClock::new(SimTime::from_ns(10), 4, 2);
        let end1 = bus.borrow_mut().reserve(SimTime::ZERO, 8);
        assert_eq!(end1, SimTime::from_cycles(4 + 16, SimTime::from_ns(10)));
        let end2 = bus.borrow_mut().reserve(SimTime::ZERO, 1);
        assert_eq!(
            end2,
            end1 + SimTime::from_cycles(6, SimTime::from_ns(10)),
            "second transfer queues"
        );
        assert_eq!(bus.borrow().transfers(), 2);

        // Two equal 6-word bursts requested together serialize back to back:
        // the pair ends after exactly twice one burst's occupancy, and the
        // bus is busy for all of it (no overlap, no gap). With no sync
        // overhead and one cycle per word that is the 12 cycles a
        // round-robin arbiter needs to grant 2 x 6-cycle bursts.
        for (sync, per_word) in [(0, 1), (4, 2)] {
            let period = SimTime::from_ns(10);
            let burst = sync + 6 * per_word;
            let bus = BusClock::new(period, sync, per_word);
            let first = bus.borrow_mut().reserve(SimTime::ZERO, 6);
            let second = bus.borrow_mut().reserve(SimTime::ZERO, 6);
            assert_eq!(first, SimTime::from_cycles(burst, period));
            assert_eq!(second, SimTime::from_cycles(2 * burst, period));
            assert_eq!(bus.borrow().busy(), second, "bursts neither overlap nor leave a gap");
        }
    }
}
