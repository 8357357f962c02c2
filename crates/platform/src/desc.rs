//! Platform description: PEs, buses, processes and channel bindings.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use tlm_cdfg::ir::Module;
use tlm_cdfg::{ChanId, FuncId};
use tlm_core::Pum;
use tlm_desim::SimTime;

use crate::rtos::RtosModel;

/// Identifies a PE within a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeId(pub usize);

/// Identifies a bus within a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BusId(pub usize);

/// One processing element.
#[derive(Debug, Clone)]
pub struct Pe {
    /// PE name.
    pub name: String,
    /// The processing unit model (used by the timed TLM and by PCAM to
    /// decide whether the PE is a processor or custom hardware).
    pub pum: Pum,
    /// Optional RTOS overhead model for shared PEs.
    pub rtos: Option<RtosModel>,
}

/// One system bus.
#[derive(Debug, Clone)]
pub struct Bus {
    /// Bus name.
    pub name: String,
    /// Bus clock period.
    pub period: SimTime,
    /// Arbitration/synchronisation cycles per transaction.
    pub sync_overhead: u64,
    /// Bus cycles per transferred 32-bit word.
    pub cycles_per_word: u64,
}

/// One application process: a module, its entry function and its mapping.
#[derive(Debug, Clone)]
pub struct ProcessSpec {
    /// Process name (unique).
    pub name: String,
    /// The process's CDFG.
    pub module: Arc<Module>,
    /// Entry function.
    pub entry: FuncId,
    /// Arguments passed to the entry function.
    pub args: Vec<i64>,
    /// The PE the process is mapped to.
    pub pe: PeId,
}

/// How a logical channel is carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelBinding {
    /// Bus carrying the channel; `None` for PE-local channels (both
    /// endpoints on the same PE), which cost [`Platform::LOCAL_SYNC_CYCLES`]
    /// on the PE instead of a bus transfer.
    pub bus: Option<BusId>,
    /// FIFO capacity in words.
    pub capacity: usize,
}

/// A complete platform: the input to TLM generation and to the PCAM board
/// model.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Platform name.
    pub name: String,
    /// Processing elements.
    pub pes: Vec<Pe>,
    /// Buses.
    pub buses: Vec<Bus>,
    /// Application processes.
    pub processes: Vec<ProcessSpec>,
    /// Channel bindings (every channel used by any process appears here).
    pub channels: BTreeMap<ChanId, ChannelBinding>,
}

impl Platform {
    /// PE cycles charged for a same-PE (memory-copy) transaction.
    pub const LOCAL_SYNC_CYCLES: u64 = 4;
}

/// Errors from platform construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformError {
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid platform: {}", self.message)
    }
}

impl Error for PlatformError {}

/// Builder for [`Platform`].
///
/// Channels used by processes but never explicitly bound are auto-bound at
/// [`PlatformBuilder::build`]: same-PE channels become local, cross-PE
/// channels ride the first bus (which is created implicitly if absent).
#[derive(Debug)]
pub struct PlatformBuilder {
    name: String,
    pes: Vec<Pe>,
    buses: Vec<Bus>,
    processes: Vec<ProcessSpec>,
    explicit: BTreeMap<ChanId, ChannelBinding>,
}

impl PlatformBuilder {
    /// Starts a platform description.
    pub fn new(name: impl Into<String>) -> Self {
        PlatformBuilder {
            name: name.into(),
            pes: Vec::new(),
            buses: Vec::new(),
            processes: Vec::new(),
            explicit: BTreeMap::new(),
        }
    }

    /// Adds a PE described by a PUM.
    pub fn add_pe(&mut self, name: impl Into<String>, pum: Pum) -> PeId {
        self.pes.push(Pe { name: name.into(), pum, rtos: None });
        PeId(self.pes.len() - 1)
    }

    /// Attaches an RTOS model to a PE.
    ///
    /// # Errors
    ///
    /// Fails if `pe` was not created by this builder. PE ids can come from
    /// untrusted platform descriptions (the serving request path), so this
    /// is a structured error, not a panic.
    pub fn set_rtos(&mut self, pe: PeId, rtos: RtosModel) -> Result<(), PlatformError> {
        let Some(entry) = self.pes.get_mut(pe.0) else {
            return Err(PlatformError { message: format!("RTOS model for unknown PE {}", pe.0) });
        };
        entry.rtos = Some(rtos);
        Ok(())
    }

    /// Adds a bus.
    pub fn add_bus(
        &mut self,
        name: impl Into<String>,
        period: SimTime,
        sync_overhead: u64,
        cycles_per_word: u64,
    ) -> BusId {
        self.buses.push(Bus { name: name.into(), period, sync_overhead, cycles_per_word });
        BusId(self.buses.len() - 1)
    }

    /// Adds an application process mapped to `pe`.
    ///
    /// # Errors
    ///
    /// Fails if the entry function does not exist, the argument count
    /// mismatches, the name is duplicated, or the PE id is unknown.
    pub fn add_process(
        &mut self,
        name: impl Into<String>,
        module: &Module,
        entry: &str,
        args: &[i64],
        pe: PeId,
    ) -> Result<(), PlatformError> {
        self.add_process_arc(name, Arc::new(module.clone()), entry, args, pe)
    }

    /// [`PlatformBuilder::add_process`] taking the module by `Arc`, so a
    /// shared (e.g. pipeline-cached) module is referenced rather than
    /// deep-cloned — the artifact store and the platform then hold the
    /// same allocation.
    ///
    /// # Errors
    ///
    /// Same as [`PlatformBuilder::add_process`].
    pub fn add_process_arc(
        &mut self,
        name: impl Into<String>,
        module: Arc<Module>,
        entry: &str,
        args: &[i64],
        pe: PeId,
    ) -> Result<(), PlatformError> {
        let name = name.into();
        if self.processes.iter().any(|p| p.name == name) {
            return Err(PlatformError { message: format!("duplicate process `{name}`") });
        }
        if pe.0 >= self.pes.len() {
            return Err(PlatformError { message: format!("unknown PE for `{name}`") });
        }
        let Some(entry_id) = module.function_id(entry) else {
            return Err(PlatformError {
                message: format!("process `{name}` entry `{entry}` not found"),
            });
        };
        let params = module.function(entry_id).params.len();
        if params != args.len() {
            return Err(PlatformError {
                message: format!("process `{name}` entry takes {params} args, got {}", args.len()),
            });
        }
        self.processes.push(ProcessSpec { name, module, entry: entry_id, args: args.to_vec(), pe });
        Ok(())
    }

    /// Explicitly binds a channel to a bus with a FIFO capacity.
    pub fn bind_channel(&mut self, chan: ChanId, bus: Option<BusId>, capacity: usize) {
        self.explicit.insert(chan, ChannelBinding { bus, capacity });
    }

    /// Finalizes the platform, auto-binding unbound channels.
    ///
    /// # Errors
    ///
    /// Fails if there are no processes, if an explicit binding references an
    /// unknown bus, or if a channel has only one side (no sender or no
    /// receiver anywhere).
    pub fn build(mut self) -> Result<Platform, PlatformError> {
        if self.processes.is_empty() {
            return Err(PlatformError { message: "platform has no processes".into() });
        }
        for (chan, binding) in &self.explicit {
            if let Some(bus) = binding.bus {
                if bus.0 >= self.buses.len() {
                    return Err(PlatformError {
                        message: format!("channel {chan} bound to unknown bus"),
                    });
                }
            }
        }

        // Which PEs touch each channel, and in which direction.
        let mut senders: BTreeMap<ChanId, Vec<PeId>> = BTreeMap::new();
        let mut receivers: BTreeMap<ChanId, Vec<PeId>> = BTreeMap::new();
        for proc in &self.processes {
            for func in &proc.module.functions {
                for block in &func.blocks {
                    for op in &block.ops {
                        match op.kind {
                            tlm_cdfg::ir::OpKind::ChanSend { chan } => {
                                senders.entry(chan).or_default().push(proc.pe);
                            }
                            tlm_cdfg::ir::OpKind::ChanRecv { chan } => {
                                receivers.entry(chan).or_default().push(proc.pe);
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        let used: Vec<ChanId> = senders
            .keys()
            .chain(receivers.keys())
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();

        let mut channels = BTreeMap::new();
        for chan in used {
            let (Some(s), Some(r)) = (senders.get(&chan), receivers.get(&chan)) else {
                return Err(PlatformError {
                    message: format!("channel {chan} has a sender or receiver missing"),
                });
            };
            if let Some(binding) = self.explicit.get(&chan) {
                channels.insert(chan, *binding);
                continue;
            }
            let local = s.iter().chain(r.iter()).all(|pe| *pe == s[0]);
            let bus = if local {
                None
            } else {
                if self.buses.is_empty() {
                    // Implicit default bus: 100 MHz, 4-cycle arbitration,
                    // 2 cycles per word.
                    self.buses.push(Bus {
                        name: "bus0".into(),
                        period: SimTime::from_ns(10),
                        sync_overhead: 4,
                        cycles_per_word: 2,
                    });
                }
                Some(BusId(0))
            };
            channels.insert(chan, ChannelBinding { bus, capacity: 64 });
        }

        Ok(Platform {
            name: self.name,
            pes: self.pes,
            buses: self.buses,
            processes: self.processes,
            channels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlm_core::library;

    fn module(src: &str) -> Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    #[test]
    fn auto_binding_distinguishes_local_and_bus_channels() {
        let producer = module("void main() { ch_send(0, 1); ch_send(1, 2); }");
        let consumer_same_pe = module("void main() { out(ch_recv(0)); }");
        let consumer_other_pe = module("void main() { out(ch_recv(1)); }");
        let mut b = PlatformBuilder::new("p");
        let cpu = b.add_pe("cpu", library::microblaze_like(8192, 4096));
        let hw = b.add_pe("hw", library::custom_hw("hw", 1, 1));
        b.add_process("prod", &producer, "main", &[], cpu).expect("ok");
        b.add_process("cons0", &consumer_same_pe, "main", &[], cpu).expect("ok");
        b.add_process("cons1", &consumer_other_pe, "main", &[], hw).expect("ok");
        let p = b.build().expect("builds");
        assert_eq!(p.channels[&ChanId(0)].bus, None, "same-PE channel is local");
        assert_eq!(p.channels[&ChanId(1)].bus, Some(BusId(0)), "cross-PE channel on bus");
        assert_eq!(p.buses.len(), 1, "default bus created implicitly");
    }

    #[test]
    fn dangling_channel_is_rejected() {
        let orphan = module("void main() { ch_send(7, 1); }");
        let mut b = PlatformBuilder::new("p");
        let cpu = b.add_pe("cpu", library::microblaze_like(0, 0));
        b.add_process("orphan", &orphan, "main", &[], cpu).expect("ok");
        let err = b.build().expect_err("no receiver for ch7");
        assert!(err.message.contains("ch7"));
    }

    #[test]
    fn duplicate_process_names_rejected() {
        let m = module("void main() { out(1); }");
        let mut b = PlatformBuilder::new("p");
        let cpu = b.add_pe("cpu", library::microblaze_like(0, 0));
        b.add_process("a", &m, "main", &[], cpu).expect("ok");
        let err = b.add_process("a", &m, "main", &[], cpu).expect_err("dup");
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn entry_validation() {
        let m = module("void main() { out(1); } int f(int x) { return x; }");
        let mut b = PlatformBuilder::new("p");
        let cpu = b.add_pe("cpu", library::microblaze_like(0, 0));
        assert!(b.add_process("bad", &m, "nope", &[], cpu).is_err());
        assert!(b.add_process("bad2", &m, "f", &[], cpu).is_err(), "arity mismatch");
        assert!(b.add_process("good", &m, "f", &[3], cpu).is_ok());
    }

    #[test]
    fn explicit_binding_wins() {
        let producer = module("void main() { ch_send(0, 1); }");
        let consumer = module("void main() { out(ch_recv(0)); }");
        let mut b = PlatformBuilder::new("p");
        let cpu = b.add_pe("cpu", library::microblaze_like(0, 0));
        let bus = b.add_bus("fast", SimTime::from_ns(5), 2, 1);
        b.add_process("prod", &producer, "main", &[], cpu).expect("ok");
        b.add_process("cons", &consumer, "main", &[], cpu).expect("ok");
        b.bind_channel(ChanId(0), Some(bus), 8);
        let p = b.build().expect("builds");
        assert_eq!(p.channels[&ChanId(0)], ChannelBinding { bus: Some(bus), capacity: 8 });
    }
}
