//! Timing annotation: attach a [`BlockDelay`] to every basic block.
//!
//! This is the "Timing Annotator" box of the paper's Fig. 2/3: the CDFG of
//! an application process plus a PUM go in; a [`TimedModule`] comes out,
//! carrying the estimated delay of every basic block. The TLM generator in
//! `tlm-platform` uses it to accumulate `wait()` time as the interpreter
//! enters blocks, and [`crate::emit`] renders it as annotated C text.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tlm_cdfg::dfg::{block_dfg, schedule_key, Dfg};
use tlm_cdfg::ir::Module;
use tlm_cdfg::{BlockId, FuncId};
use tlm_desim::SimTime;

use crate::batch::BatchItem;
use crate::cache::DomainHandle;
use crate::delay::{block_delay_with_costs, sum_cycles, BlockDelay, MemoryCosts};
use crate::error::EstimateError;
use crate::pum::Pum;
use crate::schedule::{schedule_block_prepared, with_scratch, IssueTable};

/// A module whose basic blocks carry estimated delays for one PUM.
#[derive(Debug, Clone)]
pub struct TimedModule {
    module: Arc<Module>,
    /// `delays[func][block]`.
    delays: Vec<Vec<BlockDelay>>,
    pum_name: String,
    clock_period: SimTime,
    report: AnnotationReport,
}

/// Cost accounting of an annotation run (the paper's Table 1 reports the
/// annotation time per design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnnotationReport {
    /// Basic blocks annotated.
    pub blocks: usize,
    /// Operations scheduled.
    pub ops: usize,
    /// Wall-clock time the annotation took.
    pub elapsed: Duration,
    /// Blocks whose Algorithm 1 schedule was served from the
    /// [`ScheduleCache`](crate::cache::ScheduleCache) (0 when annotating
    /// uncached).
    pub cache_hits: usize,
    /// Blocks whose schedule was computed by running Algorithm 1.
    pub cache_misses: usize,
}

/// Runs Algorithms 1 and 2 over every basic block of `module`, one block
/// at a time, with no memoization and no dedup: the per-block oracle the
/// cached, batched engine ([`annotate_in_domain`]) is checked against.
/// Both paths give bit-identical delays and the same first error — see
/// `tests/parallel_determinism.rs`.
///
/// # Errors
///
/// Fails if the PUM is invalid or cannot execute some block, or if a
/// block's cycles or the module's cycle sum exceed `u64::MAX`; see
/// [`EstimateError`]. When
/// several blocks fail, the error of the first failing block in module
/// order is returned.
pub fn annotate_uncached(module: &Module, pum: &Pum) -> Result<TimedModule, EstimateError> {
    annotate_inner(&PreparedModule::new(Arc::new(module.clone())), pum, Engine::PerBlock)
}

/// The full reference engine: sequential, no memoization, and every block
/// scheduled by the retained pre-rewrite kernel
/// ([`crate::reference::schedule_block_reference`]). The strongest oracle
/// available — nothing it runs is shared with the production path — that
/// `tests/parallel_determinism.rs` checks every design against.
///
/// # Errors
///
/// Same as [`annotate_uncached`].
#[cfg(feature = "reference-kernel")]
pub fn annotate_reference(module: &Module, pum: &Pum) -> Result<TimedModule, EstimateError> {
    annotate_inner(&PreparedModule::new(Arc::new(module.clone())), pum, Engine::Reference)
}

/// The PUM-invariant half of the estimation inputs: every block's DFG and
/// canonical schedule key, flattened into one work list.
///
/// A sweep driver annotates the same module under many PUM configurations;
/// building this once and calling [`annotate_in_domain`] per configuration
/// hoists the DFG construction and key encoding out of the sweep loop
/// (they depend only on the module).
#[derive(Debug)]
pub struct PreparedModule {
    module: Arc<Module>,
    /// Flattened block list — one batch sees every block of every
    /// function, so dedup folds across functions.
    work: Vec<(FuncId, BlockId)>,
    /// Per-`work`-entry DFG.
    dfgs: Vec<Dfg>,
    /// Per-`work`-entry canonical schedule key.
    keys: Vec<Vec<u8>>,
    /// Per-`work`-entry [`crate::batch::key_hash`] of the key, so batch
    /// planning never re-hashes on the sweep hot path.
    key_hashes: Vec<u64>,
    /// Per-`work`-entry dependence heights — DFG-invariant list-scheduling
    /// priorities, hoisted here so Algorithm 1 never recomputes them.
    heights: Vec<Vec<usize>>,
    ops: usize,
    /// Per-function `work` index range — `work` is flattened function by
    /// function, so each function's blocks are one contiguous slice.
    func_ranges: Vec<std::ops::Range<usize>>,
    /// Per-function structural identity key: the length-prefixed
    /// concatenation of every block's *estimate identity* (canonical
    /// schedule key plus the conditional-terminator flag — everything
    /// Algorithms 1 and 2 read from a block besides the op census already
    /// inside the schedule key). Invariant under renaming, reordering of
    /// functions, and whitespace/comment edits; changes whenever an op,
    /// a dependence edge or a terminator kind changes. Shared, so the
    /// pipeline's `rows` entries hold these bytes instead of copies.
    func_keys: Vec<Arc<[u8]>>,
}

impl PreparedModule {
    /// The batch items of the `work` entries in `range`.
    fn batch_items(&self, range: std::ops::Range<usize>) -> Vec<BatchItem<'_>> {
        range
            .map(|i| {
                let (fid, bid) = self.work[i];
                BatchItem {
                    key: &self.keys[i],
                    key_hash: self.key_hashes[i],
                    block: &self.module.functions[fid.0 as usize].blocks[bid.0 as usize],
                    dfg: &self.dfgs[i],
                    heights: &self.heights[i],
                    func: fid,
                    block_id: bid,
                }
            })
            .collect()
    }

    /// Builds the per-block DFGs and schedule keys.
    pub fn new(module: Arc<Module>) -> PreparedModule {
        let work: Vec<(FuncId, BlockId)> = module
            .functions_iter()
            .flat_map(|(fid, f)| f.blocks_iter().map(move |(bid, _)| (fid, bid)))
            .collect();
        let mut dfgs = Vec::with_capacity(work.len());
        let mut keys = Vec::with_capacity(work.len());
        let mut key_hashes = Vec::with_capacity(work.len());
        let mut heights = Vec::with_capacity(work.len());
        for &(fid, bid) in &work {
            let block = &module.functions[fid.0 as usize].blocks[bid.0 as usize];
            let dfg = block_dfg(block);
            let key = schedule_key(block, &dfg);
            key_hashes.push(crate::batch::key_hash(&key));
            keys.push(key);
            heights.push(dfg.heights());
            dfgs.push(dfg);
        }
        let ops = module.functions.iter().flat_map(|f| &f.blocks).map(|b| b.ops.len()).sum();
        let mut func_ranges = Vec::with_capacity(module.functions.len());
        let mut func_keys = Vec::with_capacity(module.functions.len());
        let mut start = 0usize;
        for func in &module.functions {
            let end = start + func.blocks.len();
            let mut fkey = Vec::new();
            for i in start..end {
                let (fid, bid) = work[i];
                let block = &module.functions[fid.0 as usize].blocks[bid.0 as usize];
                // Length-prefixed so block boundaries can never blur:
                // schedule key ‖ conditional-terminator flag.
                fkey.extend_from_slice(&((keys[i].len() + 1) as u32).to_le_bytes());
                fkey.extend_from_slice(&keys[i]);
                fkey.push(block.term.is_conditional() as u8);
            }
            func_keys.push(Arc::from(fkey));
            func_ranges.push(start..end);
            start = end;
        }
        PreparedModule {
            module,
            work,
            dfgs,
            keys,
            key_hashes,
            heights,
            ops,
            func_ranges,
            func_keys,
        }
    }

    /// The underlying module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// Total operations across all blocks.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Total basic blocks across all functions (the length of the
    /// flattened work list).
    pub fn total_blocks(&self) -> usize {
        self.work.len()
    }

    /// Number of basic blocks in one function.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn function_blocks(&self, func: FuncId) -> usize {
        self.func_ranges[func.0 as usize].len()
    }

    /// The structural identity key of one function: a canonical encoding
    /// of everything block-level estimation reads from it. Two functions
    /// with equal keys produce bit-identical per-block delay rows under
    /// any PUM.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn function_structural_key(&self, func: FuncId) -> &Arc<[u8]> {
        &self.func_keys[func.0 as usize]
    }

    /// `(name, structural key)` of every function, in module order.
    pub fn function_identities(&self) -> impl Iterator<Item = (&str, &Arc<[u8]>)> + '_ {
        self.module.functions.iter().zip(&self.func_keys).map(|(f, key)| (f.name.as_str(), key))
    }
}

/// Annotates the blocks of a *single function* through the batched engine,
/// returning the per-block delays in block order — the dirty-subset form
/// incremental (edit-to-estimate) sessions re-estimate with.
///
/// Runs the whole-module engine's batched body ([`annotate_in_domain`])
/// over the function's blocks — same issue table, same batched Algorithm 1
/// kernel, same [`block_delay_with_costs`] — so the rows it produces are
/// bit-identical to the corresponding slice of a full annotation run.
///
/// # Errors
///
/// Same as [`annotate_in_domain`]; when several blocks fail, the first
/// failing block in block order wins.
///
/// # Panics
///
/// Panics if `func` is out of range for the prepared module.
pub fn annotate_function_in_domain(
    prep: &PreparedModule,
    pum: &Pum,
    handle: &DomainHandle<'_>,
    func: FuncId,
) -> Result<Vec<BlockDelay>, EstimateError> {
    pum.validate()?;
    let costs = MemoryCosts::of(pum)?;
    let range = prep.func_ranges[func.0 as usize].clone();
    annotate_batched(prep, pum, &costs, handle, range).into_iter().map(|(delay, _)| delay).collect()
}

/// Algorithms 1 and 2 over the `work` entries in `range` as one dedup
/// batch through the cache's domain: one `(delay, served-from-cache)`
/// pair per entry, in `work` order.
fn annotate_batched(
    prep: &PreparedModule,
    pum: &Pum,
    costs: &MemoryCosts,
    handle: &DomainHandle<'_>,
    range: std::ops::Range<usize>,
) -> Vec<(Result<BlockDelay, EstimateError>, bool)> {
    debug_assert_eq!(
        handle.key(),
        pum.schedule_domain(),
        "PUM {} does not belong to the resolved schedule domain",
        pum.name
    );
    // Algorithm 1's per-domain facts, precompiled once per domain and
    // served from the cache's domain entry, so sweeps share one table per
    // datapath.
    let table = handle.issue_table(pum);
    let items = prep.batch_items(range);
    let scheduled = handle.schedule_batch_keyed(&table, &items);
    items
        .iter()
        .zip(scheduled)
        .map(|(item, (result, hit))| {
            (result.and_then(|s| block_delay_with_costs(costs, item.block, s.cycles)), hit)
        })
        .collect()
}

/// Runs Algorithms 1 and 2 over every block of a [`PreparedModule`]
/// through one domain of a [`ScheduleCache`](crate::cache::ScheduleCache):
/// the whole module is one dedup batch ([`crate::batch`]), and each
/// block's Algorithm 1 schedule is served from the cache when an earlier
/// run solved it. Obtain the handle with
/// `cache.domain(&ScheduleDomain::of(pum))`.
///
/// Resolving a domain that way encodes the PUM's scheduling sub-models
/// and hashes the encoding into the cache's domain map: 1.2 µs for the
/// 300-byte MicroBlaze domain on a 2-core Xeon VM, 0.8–0.9 µs of it the
/// encoding, which is more than annotating a small module from a warm
/// cache. A holder of the PUM's estimate-domain encoding resolves from
/// its suffix instead, in about 0.25 µs
/// ([`ScheduleDomain::from_encoding`](crate::cache::ScheduleDomain::from_encoding)).
/// A sweep driver that varies only the statistical models (cache sizes,
/// branch rates) resolves the handle **once per datapath** and passes it
/// to every sweep point. The caller asserts that `pum` belongs
/// to the handle's domain; debug builds verify it.
///
/// # Errors
///
/// Same as [`annotate_uncached`].
pub fn annotate_in_domain(
    prep: &PreparedModule,
    pum: &Pum,
    handle: &DomainHandle<'_>,
) -> Result<TimedModule, EstimateError> {
    annotate_inner(prep, pum, Engine::Batched(handle))
}

/// How [`annotate_inner`] runs Algorithm 1.
enum Engine<'h, 'c> {
    /// The whole module as one dedup batch, through the cache's domain.
    Batched(&'h DomainHandle<'c>),
    /// One block at a time on the production kernel, nothing shared with
    /// the batched path — the oracle the batched engine is differenced
    /// against.
    PerBlock,
    /// One block at a time on the retained pre-rewrite kernel.
    #[cfg(feature = "reference-kernel")]
    Reference,
}

fn annotate_inner(
    prep: &PreparedModule,
    pum: &Pum,
    engine: Engine<'_, '_>,
) -> Result<TimedModule, EstimateError> {
    pum.validate()?;
    let start = Instant::now();
    let module = &prep.module;
    // Algorithm 2's block-independent factors, derived once per run.
    let costs = MemoryCosts::of(pum)?;

    let results: Vec<(Result<BlockDelay, EstimateError>, bool)> = match engine {
        Engine::Batched(handle) => annotate_batched(prep, pum, &costs, handle, 0..prep.work.len()),
        Engine::PerBlock => {
            // Algorithm 1's per-domain facts, precompiled once per run.
            let table = IssueTable::build(pum);
            prep.work
                .iter()
                .enumerate()
                .map(|(i, &(fid, bid))| {
                    let block = &module.functions[fid.0 as usize].blocks[bid.0 as usize];
                    let sched = with_scratch(|scratch| {
                        let (dfg, heights) = (&prep.dfgs[i], &prep.heights[i]);
                        schedule_block_prepared(&table, scratch, block, dfg, heights, fid, bid)
                    });
                    (sched.and_then(|s| block_delay_with_costs(&costs, block, s.cycles)), false)
                })
                .collect()
        }
        #[cfg(feature = "reference-kernel")]
        Engine::Reference => prep
            .work
            .iter()
            .zip(&prep.dfgs)
            .map(|(&(fid, bid), dfg)| {
                let block = &module.functions[fid.0 as usize].blocks[bid.0 as usize];
                let sched = crate::reference::schedule_block_reference(pum, block, dfg, fid, bid);
                (sched.and_then(|s| block_delay_with_costs(&costs, block, s.cycles)), false)
            })
            .collect(),
    };

    let mut delays: Vec<Vec<BlockDelay>> =
        module.functions.iter().map(|f| Vec::with_capacity(f.blocks.len())).collect();
    let mut report = AnnotationReport::default();
    // `results` is in `work` order, so scanning it front to back makes the
    // first error deterministic in module order.
    for (&(fid, _), (result, hit)) in prep.work.iter().zip(results) {
        let delay = result?;
        delays[fid.0 as usize].push(delay);
        if hit {
            report.cache_hits += 1;
        } else {
            report.cache_misses += 1;
        }
    }
    // Every report sums the block cycles, so a module whose sum does not
    // fit is rejected here, once for every engine.
    sum_cycles(delays.iter().flatten().map(|d| d.cycles))?;
    report.blocks = prep.work.len();
    report.ops = prep.ops;
    report.elapsed = start.elapsed();
    Ok(TimedModule {
        module: Arc::clone(module),
        delays,
        pum_name: pum.name.clone(),
        clock_period: SimTime::from_ps(pum.clock_period_ps),
        report,
    })
}

impl TimedModule {
    /// The underlying module.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// The PE model the delays were estimated for.
    pub fn pum_name(&self) -> &str {
        &self.pum_name
    }

    /// The PE clock period, for converting cycles to simulated time.
    pub fn clock_period(&self) -> SimTime {
        self.clock_period
    }

    /// The delay annotated onto one block.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range for the module.
    pub fn delay(&self, func: FuncId, block: BlockId) -> &BlockDelay {
        &self.delays[func.0 as usize][block.0 as usize]
    }

    /// Estimated cycles of one block (the value the generated `wait()`
    /// call carries).
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range for the module.
    pub fn cycles(&self, func: FuncId, block: BlockId) -> u64 {
        self.delay(func, block).cycles
    }

    /// Number of annotated basic blocks.
    pub fn total_annotated_blocks(&self) -> usize {
        self.report.blocks
    }

    /// Annotation cost accounting.
    pub fn report(&self) -> &AnnotationReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{ScheduleCache, ScheduleDomain};
    use crate::library;

    /// The batched engine through `cache`, the way a `Pipeline` drives it.
    fn annotate_cached(
        prep: &PreparedModule,
        pum: &Pum,
        cache: &ScheduleCache,
    ) -> Result<TimedModule, EstimateError> {
        annotate_in_domain(prep, pum, &cache.domain(&ScheduleDomain::of(pum)))
    }

    fn module_of(src: &str) -> Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    const SRC: &str = "
        int t[16];
        int sum(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += t[i] * i; }
            return s;
        }
        void main() { out(sum(16)); }
    ";

    #[test]
    fn annotates_every_block() {
        let module = module_of(SRC);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let timed = annotate_uncached(&module, &pum).expect("annotates");
        let expected: usize = module.functions.iter().map(|f| f.blocks.len()).sum();
        assert_eq!(timed.total_annotated_blocks(), expected);
        assert_eq!(timed.pum_name(), pum.name);
    }

    #[test]
    fn nonempty_blocks_get_nonzero_cycles() {
        let module = module_of(SRC);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let timed = annotate_uncached(&module, &pum).expect("annotates");
        for (fid, func) in module.functions_iter() {
            for (bid, block) in func.blocks_iter() {
                if !block.ops.is_empty() {
                    assert!(
                        timed.cycles(fid, bid) > 0,
                        "block {fid}/{bid} with {} ops got 0 cycles",
                        block.ops.len()
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_pum_is_rejected_up_front() {
        let module = module_of(SRC);
        let mut pum = library::microblaze_like(8 << 10, 4 << 10);
        pum.clock_period_ps = 0;
        assert!(matches!(annotate_uncached(&module, &pum), Err(EstimateError::BadPum { .. })));
    }

    #[test]
    fn all_engine_paths_agree() {
        let module = module_of(SRC);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let reference = annotate_uncached(&module, &pum).expect("annotates");
        let cache = ScheduleCache::new();
        let prep = PreparedModule::new(Arc::new(module.clone()));
        // The first batched run solves every block; the second is served
        // from the cache.
        for pass in ["cold", "warm"] {
            let timed = annotate_cached(&prep, &pum, &cache).expect("annotates");
            for (fid, func) in module.functions_iter() {
                for (bid, _) in func.blocks_iter() {
                    assert_eq!(
                        timed.delay(fid, bid),
                        reference.delay(fid, bid),
                        "{pass} cache differs at {fid}/{bid}"
                    );
                }
            }
        }
    }

    #[test]
    fn repeat_annotation_is_served_from_cache() {
        let module = module_of(SRC);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let cache = ScheduleCache::new();
        let prep = PreparedModule::new(Arc::new(module));
        let first = annotate_cached(&prep, &pum, &cache).expect("annotates");
        assert_eq!(first.report().cache_hits, 0, "cold cache");
        assert_eq!(first.report().cache_misses, first.report().blocks);
        // Sweep point two: different cache size, same datapath — Algorithm 1
        // must not run again for any block.
        let swept = library::microblaze_like(32 << 10, 16 << 10);
        let second = annotate_cached(&prep, &swept, &cache).expect("annotates");
        assert_eq!(second.report().cache_misses, 0, "warm cache");
        assert_eq!(second.report().cache_hits, second.report().blocks);
    }

    #[test]
    fn first_error_is_deterministic() {
        // A module with several blocks that all fail (unmapped class):
        // whichever engine path runs, the reported error is the same.
        let module = module_of(SRC);
        let mut pum = library::microblaze_like(8 << 10, 4 << 10);
        pum.execution.op_map.clear();
        let cache = ScheduleCache::new();
        let reference = annotate_uncached(&module, &pum).expect_err("unmapped classes fail");
        let prep = PreparedModule::new(Arc::new(module));
        let err = annotate_cached(&prep, &pum, &cache).expect_err("unmapped classes fail");
        assert_eq!(err, reference);
    }

    #[test]
    fn cycles_past_u64_are_an_error_on_every_engine() {
        // Finite but huge: no CPU block's delay fits in u64 cycles, in a
        // multi-block module and in a one-block one alike.
        let mut pum = library::microblaze_like(8 << 10, 4 << 10);
        pum.memory.fetch_expansion = 1e300;
        for src in [SRC, "void main() { out(1); }"] {
            let module = module_of(src);
            let uncached = annotate_uncached(&module, &pum).expect_err("cannot be counted");
            assert!(matches!(uncached, EstimateError::BadPum { .. }), "{uncached}");
            let prep = PreparedModule::new(Arc::new(module));
            let cache = ScheduleCache::new();
            let cached = annotate_cached(&prep, &pum, &cache).expect_err("cannot be counted");
            assert_eq!(cached, uncached);
            let handle = cache.domain(&ScheduleDomain::of(&pum));
            let rows = annotate_function_in_domain(&prep, &pum, &handle, FuncId(0));
            assert_eq!(rows.expect_err("cannot be counted"), uncached);
        }
    }

    #[test]
    fn different_pums_give_different_annotations() {
        let module = module_of(SRC);
        let cpu = annotate_uncached(&module, &library::microblaze_like(8 << 10, 4 << 10))
            .expect("annotates");
        let hw = annotate_uncached(&module, &library::custom_hw("hw", 2, 2)).expect("annotates");
        let total = |t: &TimedModule| {
            module
                .functions_iter()
                .flat_map(|(fid, f)| f.blocks_iter().map(move |(bid, _)| (fid, bid)))
                .map(|(fid, bid)| t.cycles(fid, bid))
                .sum::<u64>()
        };
        assert!(total(&hw) < total(&cpu), "HW estimate beats the soft core");
    }

    /// Structural key of a named function, straight from source text.
    fn key_of(src: &str, name: &str) -> Arc<[u8]> {
        let module = Arc::new(module_of(src));
        let fid = module.function_id(name).expect("function exists");
        Arc::clone(PreparedModule::new(module).function_structural_key(fid))
    }

    #[test]
    fn structural_key_survives_reordering_and_formatting() {
        let base = "
            int helper(int x) { return x * 3 + 1; }
            void main() { out(helper(ch_recv(0))); }
        ";
        // Functions swapped, whitespace mangled, comments added: every
        // function keeps its structural identity.
        let shuffled = "
            /* moved main up */
            void main() { out(helper(ch_recv(0))); }
            int helper(int x) {
                // same ops, different layout
                return x * 3 + 1;
            }
        ";
        for name in ["helper", "main"] {
            assert_eq!(
                key_of(base, name),
                key_of(shuffled, name),
                "{name} identity must survive reorder + formatting"
            );
        }
    }

    #[test]
    fn structural_key_tracks_op_and_dependency_edits() {
        let base = "int f(int x) { int a = x + 1; int b = x * 2; return a + b; }";
        // Op edit: multiply becomes shift.
        let op_edit = "int f(int x) { int a = x + 1; int b = x << 2; return a + b; }";
        // Dependency edit: same op census, but `b` now consumes `a`.
        let dep_edit = "int f(int x) { int a = x + 1; int b = a * 2; return a + b; }";
        let key = key_of(base, "f");
        assert_ne!(key, key_of(op_edit, "f"), "op class change must re-key");
        assert_ne!(key, key_of(dep_edit, "f"), "dependence change must re-key");
    }

    #[test]
    fn function_identities_enumerate_in_module_order() {
        let module = Arc::new(module_of(SRC));
        let prep = PreparedModule::new(Arc::clone(&module));
        let names: Vec<&str> = prep.function_identities().map(|(n, _)| n).collect();
        let expected: Vec<&str> = module.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, expected);
        assert_eq!(
            (0..module.functions.len())
                .map(|f| prep.function_blocks(FuncId(f as u32)))
                .sum::<usize>(),
            prep.total_blocks()
        );
    }

    #[test]
    fn per_function_annotation_matches_full_run() {
        let module = Arc::new(module_of(SRC));
        let prep = PreparedModule::new(Arc::clone(&module));
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let full = annotate_uncached(&module, &pum).expect("annotates");
        let cache = ScheduleCache::new();
        let handle = cache.domain(&ScheduleDomain::of(&pum));
        for (fid, func) in module.functions_iter() {
            let rows = annotate_function_in_domain(&prep, &pum, &handle, fid)
                .expect("annotates one function");
            assert_eq!(rows.len(), func.blocks.len());
            for (bid, _) in func.blocks_iter() {
                assert_eq!(
                    rows[bid.0 as usize],
                    *full.delay(fid, bid),
                    "per-function row must be bit-identical to the full run"
                );
            }
        }
    }
}
