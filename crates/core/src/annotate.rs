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

use crate::batch::{solve_batch, BatchItem};
use crate::cache::{DomainHandle, ScheduleCache, ScheduleDomain};
use crate::delay::{block_delay_with_costs, BlockDelay, MemoryCosts};
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
    /// [`ScheduleCache`] (0 when annotating uncached).
    pub cache_hits: usize,
    /// Blocks whose schedule was computed by running Algorithm 1.
    pub cache_misses: usize,
}

/// Runs Algorithms 1 and 2 over every basic block of `module`.
///
/// Uses the process-wide [`ScheduleCache`] and the batched engine; the
/// result is bit-identical to the per-block uncached path
/// ([`annotate_uncached`]) — see `tests/parallel_determinism.rs`.
///
/// # Errors
///
/// Fails if the PUM is invalid or cannot execute some block; see
/// [`EstimateError`].
pub fn annotate(module: &Module, pum: &Pum) -> Result<TimedModule, EstimateError> {
    annotate_arc(Arc::new(module.clone()), pum)
}

/// Like [`annotate`] but shares an existing module.
///
/// # Errors
///
/// Same as [`annotate`].
pub fn annotate_arc(module: Arc<Module>, pum: &Pum) -> Result<TimedModule, EstimateError> {
    annotate_arc_with(module, pum, Some(ScheduleCache::global()), true)
}

/// Reference path: one block at a time, no memoization, no dedup. Exists
/// so the cached and batched engine has an oracle to be checked against.
///
/// # Errors
///
/// Same as [`annotate`].
pub fn annotate_uncached(module: &Module, pum: &Pum) -> Result<TimedModule, EstimateError> {
    annotate_arc_with(Arc::new(module.clone()), pum, None, false)
}

/// The full reference engine: sequential, no memoization, and every block
/// scheduled by the retained pre-rewrite kernel
/// ([`crate::reference::schedule_block_reference`]). The strongest oracle
/// available — nothing it runs is shared with the production path — used
/// by the `estperf` benchmark as both baseline and bit-identity check.
///
/// # Errors
///
/// Same as [`annotate`].
#[cfg(feature = "reference-kernel")]
pub fn annotate_reference(module: &Module, pum: &Pum) -> Result<TimedModule, EstimateError> {
    annotate_inner(&PreparedModule::new(Arc::new(module.clone())), pum, Engine::Reference)
}

/// The fully-general entry point: annotate with an explicit schedule cache
/// (or none). With a cache, or with `batched`, the whole module is one
/// dedup batch ([`crate::batch`]); without either, every block runs the
/// per-block kernel on its own — the [`annotate_uncached`] oracle.
///
/// Results are deterministic across all four combinations: the block order,
/// the delays and the first reported error are identical whether blocks are
/// batched or scheduled one by one, cached or direct.
///
/// # Errors
///
/// Fails if the PUM is invalid or cannot execute some block. When several
/// blocks fail, the error of the first failing block in module order is
/// returned.
pub fn annotate_arc_with(
    module: Arc<Module>,
    pum: &Pum,
    cache: Option<&ScheduleCache>,
    batched: bool,
) -> Result<TimedModule, EstimateError> {
    annotate_prepared(&PreparedModule::new(module), pum, cache, batched)
}

/// The PUM-invariant half of the estimation inputs: every block's DFG and
/// canonical schedule key, flattened into one work list.
///
/// A sweep driver annotates the same module under many PUM configurations;
/// building this once and calling [`annotate_prepared`] per configuration
/// hoists the DFG construction and key encoding out of the sweep loop
/// (they depend only on the module). [`annotate_arc_with`] is exactly
/// `annotate_prepared(&PreparedModule::new(module), ..)`, so prepared and
/// unprepared estimation take identical code paths.
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
    /// a dependence edge or a terminator kind changes.
    func_keys: Vec<Vec<u8>>,
    /// FNV-1a of `func_keys[f]`, for cheap session-side diffing. Equality
    /// decisions on cache keys always use the full bytes.
    func_hashes: Vec<u64>,
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
        let mut func_hashes = Vec::with_capacity(module.functions.len());
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
            func_hashes.push(crate::fingerprint::fnv1a_64(&fkey));
            func_keys.push(fkey);
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
            func_hashes,
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

    /// Number of functions.
    pub fn function_count(&self) -> usize {
        self.func_ranges.len()
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
    pub fn function_structural_key(&self, func: FuncId) -> &[u8] {
        &self.func_keys[func.0 as usize]
    }

    /// FNV-1a fingerprint of [`PreparedModule::function_structural_key`] —
    /// for fast dirty-set diffing only; never used as a cache key.
    ///
    /// # Panics
    ///
    /// Panics if `func` is out of range.
    pub fn function_structural_hash(&self, func: FuncId) -> u64 {
        self.func_hashes[func.0 as usize]
    }

    /// `(name, structural hash)` of every function, in module order.
    pub fn function_identities(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.module
            .functions
            .iter()
            .zip(&self.func_hashes)
            .map(|(f, &hash)| (f.name.as_str(), hash))
    }
}

/// Annotates the blocks of a *single function* through the batched engine,
/// returning the per-block delays in block order — the dirty-subset form
/// incremental (edit-to-estimate) sessions re-estimate with.
///
/// Runs the exact floating-point path of the whole-module engine
/// ([`annotate_in_domain`]) — same issue table, same batched Algorithm 1
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
    debug_assert_eq!(
        ScheduleDomain::of(pum).fingerprint(),
        handle.fingerprint(),
        "PUM {} does not belong to the resolved schedule domain",
        pum.name
    );
    pum.validate()?;
    let costs = MemoryCosts::of(pum)?;
    let table: Arc<IssueTable> = handle.issue_table(pum);
    let items = prep.batch_items(prep.func_ranges[func.0 as usize].clone());
    let scheduled = handle.schedule_batch_keyed(&table, &items);
    items
        .iter()
        .zip(scheduled)
        .map(|(item, (result, _hit))| {
            result.map(|sched| block_delay_with_costs(&costs, item.block, sched.cycles))
        })
        .collect()
}

/// [`annotate_arc_with`] over a [`PreparedModule`] — the sweep-loop form.
///
/// # Errors
///
/// Same as [`annotate_arc_with`].
pub fn annotate_prepared(
    prep: &PreparedModule,
    pum: &Pum,
    cache: Option<&ScheduleCache>,
    batched: bool,
) -> Result<TimedModule, EstimateError> {
    // Resolve the PUM's schedule domain once; per-block lookups then only
    // hash the block's own key.
    let handle: Option<DomainHandle<'_>> = cache.map(|c| c.domain(&ScheduleDomain::of(pum)));
    let engine = if batched || handle.is_some() {
        Engine::Batched(handle.as_ref())
    } else {
        Engine::PerBlock
    };
    annotate_inner(prep, pum, engine)
}

/// [`annotate_prepared`] with the cache's [`DomainHandle`] already resolved.
///
/// Resolving a domain serializes the PUM's scheduling sub-models, which
/// costs more than annotating a small module from a warm cache. A sweep
/// driver that varies only the statistical models (cache sizes, branch
/// rates) resolves the handle **once per datapath** and passes it to every
/// sweep point. The caller asserts that `pum` belongs to the handle's
/// domain; debug builds verify it.
///
/// # Errors
///
/// Same as [`annotate_prepared`].
pub fn annotate_in_domain(
    prep: &PreparedModule,
    pum: &Pum,
    handle: &DomainHandle<'_>,
) -> Result<TimedModule, EstimateError> {
    debug_assert_eq!(
        ScheduleDomain::of(pum).fingerprint(),
        handle.fingerprint(),
        "PUM {} does not belong to the resolved schedule domain",
        pum.name
    );
    annotate_inner(prep, pum, Engine::Batched(Some(handle)))
}

/// How [`annotate_inner`] runs Algorithm 1.
enum Engine<'h, 'c> {
    /// The whole module as one dedup batch, through the cache's domain
    /// when there is a handle.
    Batched(Option<&'h DomainHandle<'c>>),
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
    // Algorithm 1's per-domain facts, precompiled once per run (served
    // from the cache's domain entry when there is one, so sweeps share a
    // single table per datapath).
    let table: Arc<IssueTable> = match engine {
        Engine::Batched(Some(handle)) => handle.issue_table(pum),
        _ => Arc::new(IssueTable::build(pum)),
    };

    let results: Vec<(Result<BlockDelay, EstimateError>, bool)> = match engine {
        Engine::Batched(handle) => {
            let items = prep.batch_items(0..prep.work.len());
            let scheduled = match handle {
                Some(handle) => handle.schedule_batch_keyed(&table, &items),
                None => solve_batch(&table, &items).into_iter().map(|r| (r, false)).collect(),
            };
            items
                .iter()
                .zip(scheduled)
                .map(|(item, (result, hit))| {
                    (result.map(|s| block_delay_with_costs(&costs, item.block, s.cycles)), hit)
                })
                .collect()
        }
        Engine::PerBlock => prep
            .work
            .iter()
            .enumerate()
            .map(|(i, &(fid, bid))| {
                let block = &module.functions[fid.0 as usize].blocks[bid.0 as usize];
                let sched = with_scratch(|scratch| {
                    let (dfg, heights) = (&prep.dfgs[i], &prep.heights[i]);
                    schedule_block_prepared(&table, scratch, block, dfg, heights, fid, bid)
                });
                (sched.map(|s| block_delay_with_costs(&costs, block, s.cycles)), false)
            })
            .collect(),
        #[cfg(feature = "reference-kernel")]
        Engine::Reference => prep
            .work
            .iter()
            .zip(&prep.dfgs)
            .map(|(&(fid, bid), dfg)| {
                let block = &module.functions[fid.0 as usize].blocks[bid.0 as usize];
                let sched = crate::reference::schedule_block_reference(pum, block, dfg, fid, bid);
                (sched.map(|s| block_delay_with_costs(&costs, block, s.cycles)), false)
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

    /// Sum of annotated cycles over all blocks, weighted by an execution
    /// count profile (`counts[func][block]`). Useful to predict total
    /// cycles from a block-frequency profile without re-running.
    ///
    /// # Panics
    ///
    /// Panics if the profile's shape does not match the module.
    pub fn weighted_total(&self, counts: &[Vec<u64>]) -> u64 {
        assert_eq!(counts.len(), self.delays.len(), "profile shape mismatch");
        let mut total = 0u64;
        for (f, func_counts) in counts.iter().enumerate() {
            assert_eq!(func_counts.len(), self.delays[f].len(), "profile shape mismatch");
            for (b, &count) in func_counts.iter().enumerate() {
                total += count * self.delays[f][b].cycles;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

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
        let timed = annotate(&module, &pum).expect("annotates");
        let expected: usize = module.functions.iter().map(|f| f.blocks.len()).sum();
        assert_eq!(timed.total_annotated_blocks(), expected);
        assert_eq!(timed.pum_name(), pum.name);
    }

    #[test]
    fn nonempty_blocks_get_nonzero_cycles() {
        let module = module_of(SRC);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let timed = annotate(&module, &pum).expect("annotates");
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
        assert!(matches!(annotate(&module, &pum), Err(EstimateError::BadPum { .. })));
    }

    #[test]
    fn weighted_total_matches_manual_sum() {
        let module = module_of(SRC);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let timed = annotate(&module, &pum).expect("annotates");
        // A profile that enters each block exactly once.
        let counts: Vec<Vec<u64>> =
            module.functions.iter().map(|f| vec![1; f.blocks.len()]).collect();
        let manual: u64 = module
            .functions_iter()
            .flat_map(|(fid, f)| f.blocks_iter().map(move |(bid, _)| (fid, bid)))
            .map(|(fid, bid)| timed.cycles(fid, bid))
            .sum();
        assert_eq!(timed.weighted_total(&counts), manual);
    }

    #[test]
    fn all_engine_paths_agree() {
        let module = module_of(SRC);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let reference = annotate_uncached(&module, &pum).expect("annotates");
        let cache = ScheduleCache::new();
        let arc = Arc::new(module.clone());
        for batched in [false, true] {
            for use_cache in [false, true] {
                let timed =
                    annotate_arc_with(Arc::clone(&arc), &pum, use_cache.then_some(&cache), batched)
                        .expect("annotates");
                for (fid, func) in module.functions_iter() {
                    for (bid, _) in func.blocks_iter() {
                        assert_eq!(
                            timed.delay(fid, bid),
                            reference.delay(fid, bid),
                            "batched={batched} cache={use_cache} differs at {fid}/{bid}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repeat_annotation_is_served_from_cache() {
        let module = module_of(SRC);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let cache = ScheduleCache::new();
        let arc = Arc::new(module);
        let first =
            annotate_arc_with(Arc::clone(&arc), &pum, Some(&cache), false).expect("annotates");
        assert_eq!(first.report().cache_hits, 0, "cold cache");
        assert_eq!(first.report().cache_misses, first.report().blocks);
        // Sweep point two: different cache size, same datapath — Algorithm 1
        // must not run again for any block.
        let swept = library::microblaze_like(32 << 10, 16 << 10);
        let second = annotate_arc_with(arc, &swept, Some(&cache), false).expect("annotates");
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
        let arc = Arc::new(module);
        let reference = annotate_arc_with(Arc::clone(&arc), &pum, None, false)
            .expect_err("unmapped classes fail");
        for batched in [false, true] {
            for use_cache in [false, true] {
                let err =
                    annotate_arc_with(Arc::clone(&arc), &pum, use_cache.then_some(&cache), batched)
                        .expect_err("unmapped classes fail");
                assert_eq!(err, reference);
            }
        }
    }

    #[test]
    fn different_pums_give_different_annotations() {
        let module = module_of(SRC);
        let cpu =
            annotate(&module, &library::microblaze_like(8 << 10, 4 << 10)).expect("annotates");
        let hw = annotate(&module, &library::custom_hw("hw", 2, 2)).expect("annotates");
        let total = |t: &TimedModule| {
            module
                .functions_iter()
                .flat_map(|(fid, f)| f.blocks_iter().map(move |(bid, _)| (fid, bid)))
                .map(|(fid, bid)| t.cycles(fid, bid))
                .sum::<u64>()
        };
        assert!(total(&hw) < total(&cpu), "HW estimate beats the soft core");
    }

    /// Structural hash of a named function, straight from source text.
    fn hash_of(src: &str, name: &str) -> u64 {
        let module = Arc::new(module_of(src));
        let fid = module.function_id(name).expect("function exists");
        PreparedModule::new(module).function_structural_hash(fid)
    }

    #[test]
    fn structural_hash_survives_reordering_and_formatting() {
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
                hash_of(base, name),
                hash_of(shuffled, name),
                "{name} identity must survive reorder + formatting"
            );
        }
    }

    #[test]
    fn structural_hash_tracks_op_and_dependency_edits() {
        let base = "int f(int x) { int a = x + 1; int b = x * 2; return a + b; }";
        // Op edit: multiply becomes shift.
        let op_edit = "int f(int x) { int a = x + 1; int b = x << 2; return a + b; }";
        // Dependency edit: same op census, but `b` now consumes `a`.
        let dep_edit = "int f(int x) { int a = x + 1; int b = a * 2; return a + b; }";
        let h = hash_of(base, "f");
        assert_ne!(h, hash_of(op_edit, "f"), "op class change must re-key");
        assert_ne!(h, hash_of(dep_edit, "f"), "dependence change must re-key");
    }

    #[test]
    fn function_identities_enumerate_in_module_order() {
        let module = Arc::new(module_of(SRC));
        let prep = PreparedModule::new(Arc::clone(&module));
        let names: Vec<&str> = prep.function_identities().map(|(n, _)| n).collect();
        let expected: Vec<&str> = module.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, expected);
        assert_eq!(prep.function_count(), module.functions.len());
        assert_eq!(
            (0..prep.function_count())
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
        let full = annotate_prepared(&prep, &pum, None, true).expect("annotates");
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
