//! The Processing Unit Model (PUM) — §4.1 of the paper.
//!
//! A PUM characterizes a processing element with four sub-models:
//!
//! 1. **Execution model** — the operation scheduling policy and the
//!    operation mapping table (demand-operand stage, commit-result stage and
//!    per-stage functional-unit usage for every operation class);
//! 2. **Datapath model** — functional units (type, quantity, modes with
//!    per-mode delays) and one or more pipelines (multiple pipelines model
//!    superscalar issue);
//! 3. **Branch delay model** — statistical: misprediction penalty and
//!    average misprediction ratio;
//! 4. **Memory model** — statistical: i-/d-cache hit rates for a set of
//!    cache sizes, access latencies and the external memory latency.
//!
//! Everything here is plain serializable data: retargeting the estimator to
//! a new PE means writing a new PUM, not new code (the paper's Figs. 4–5
//! show a custom DCT datapath and a MicroBlaze described in the same form).

use std::collections::BTreeMap;

use tlm_cdfg::OpClass;
use tlm_json::{JsonError, ObjectBuilder, Value};

use crate::error::EstimateError;

/// Operation scheduling policies the execution model supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// Issue strictly in program order (one op per pipeline per cycle);
    /// the policy of in-order processors.
    InOrder,
    /// Issue any data-ready op, oldest first — classic ASAP dataflow
    /// scheduling, natural for custom hardware.
    Asap,
    /// Issue data-ready ops, least critical first (largest slack). Mostly
    /// useful as an ablation baseline; produces the worst schedules.
    Alap,
    /// List scheduling: issue data-ready ops, longest dependence chain
    /// (height) first. The usual choice for custom HW datapaths.
    List,
}

/// One operating mode of a functional unit, e.g. an ALU's `add` vs `mul`
/// mode, with the cycles the unit is occupied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuMode {
    /// Mode name (diagnostic only).
    pub name: String,
    /// Cycles an operation occupies the unit in this mode (≥ 1).
    pub delay: u32,
}

/// A functional unit type with a replication count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncUnit {
    /// Unit name, e.g. `"alu"`, `"mac"`, `"lsu"`.
    pub name: String,
    /// How many identical instances exist.
    pub quantity: u32,
    /// Available modes.
    pub modes: Vec<FuMode>,
}

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Stage name, e.g. `"IF"`, `"EX"`.
    pub name: String,
    /// Maximum operations resident in the stage simultaneously. CPU stages
    /// use 1; a non-pipelined HW datapath models its single stage with a
    /// width bounded by its functional units.
    pub width: u32,
}

/// One pipeline: an ordered list of stages. Superscalar PEs have several.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    /// Pipeline name.
    pub name: String,
    /// Stages in flow order.
    pub stages: Vec<Stage>,
}

/// The datapath model: functional units plus pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datapath {
    /// Functional unit inventory.
    pub units: Vec<FuncUnit>,
    /// Pipelines (≥ 1). All pipelines share the stage structure
    /// requirements of the operation mapping table.
    pub pipelines: Vec<Pipeline>,
}

/// Functional-unit usage of an operation at one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageUsage {
    /// Stage index the unit is used in.
    pub stage: usize,
    /// Index into [`Datapath::units`].
    pub fu: usize,
    /// Index into that unit's modes; the mode delay is how long the op
    /// occupies the stage.
    pub mode: usize,
}

/// Operation mapping table entry for one op class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBinding {
    /// Stage at which operands must be available (the *demand operand*
    /// flag of the paper).
    pub demand_stage: usize,
    /// Stage whose completion makes the result available to dependents
    /// (the *commit result* flag).
    pub commit_stage: usize,
    /// Per-stage functional-unit usage; stages not listed take one cycle
    /// and no unit.
    pub usage: Vec<StageUsage>,
    /// A transparent op costs nothing: it never enters the pipeline and its
    /// result is available immediately (e.g. constants that are hardwired
    /// in a custom datapath).
    pub transparent: bool,
}

/// The execution model: scheduling policy + operation mapping table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionModel {
    /// How ready operations are picked for issue.
    pub policy: SchedulingPolicy,
    /// Binding for each op class that can occur. Missing classes make
    /// estimation fail with [`EstimateError::UnmappedClass`].
    pub op_map: BTreeMap<OpClassKey, OpBinding>,
}

/// Serializable key wrapper for [`OpClass`] (JSON maps need string keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClassKey {
    /// [`OpClass::Alu`]
    Alu,
    /// [`OpClass::Mul`]
    Mul,
    /// [`OpClass::Div`]
    Div,
    /// [`OpClass::Shift`]
    Shift,
    /// [`OpClass::Load`]
    Load,
    /// [`OpClass::Store`]
    Store,
    /// [`OpClass::Move`]
    Move,
    /// [`OpClass::Control`]
    Control,
}

impl From<OpClass> for OpClassKey {
    fn from(value: OpClass) -> Self {
        match value {
            OpClass::Alu => OpClassKey::Alu,
            OpClass::Mul => OpClassKey::Mul,
            OpClass::Div => OpClassKey::Div,
            OpClass::Shift => OpClassKey::Shift,
            OpClass::Load => OpClassKey::Load,
            OpClass::Store => OpClassKey::Store,
            OpClass::Move => OpClassKey::Move,
            OpClass::Control => OpClassKey::Control,
        }
    }
}

/// Statistical branch delay model (§4.1, item 3).
#[derive(Debug, Clone, PartialEq)]
pub struct BranchModel {
    /// Prediction scheme name (informational; the *rate* carries the
    /// statistics).
    pub policy: String,
    /// Cycles lost on a misprediction.
    pub penalty: u32,
    /// Average misprediction ratio in `[0, 1]`.
    pub miss_rate: f64,
}

/// How instruction fetches or data accesses reach memory.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryPath {
    /// No memory traffic at all: custom HW with hardwired control (for
    /// instructions) or dedicated single-cycle SRAM already accounted in
    /// the functional-unit delay (for data).
    Hardwired,
    /// Every access pays the external memory latency (cacheless CPU).
    Uncached,
    /// Statistical cache model.
    Cached(CacheModel),
}

/// Statistical cache model (§4.1, item 4): average hit rates per cache
/// size, plus latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheModel {
    /// Configured cache size in bytes; must be a key of `hit_rates`.
    pub size: u32,
    /// Average hit rate per cache size (bytes → rate in `[0, 1]`). Obtained
    /// by characterization (see [`crate::characterize`]).
    pub hit_rates: BTreeMap<u32, f64>,
    /// Extra cycles of a hit beyond what the pipeline already overlaps
    /// (usually 0 for an L1 integrated into the pipeline).
    pub hit_delay: u32,
    /// Cycles lost on a miss.
    pub miss_penalty: u32,
}

impl CacheModel {
    /// The hit rate at the configured size.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::MissingHitRate`] if the configured size has
    /// no characterized rate. Models that passed [`Pum::validate`] never
    /// hit this, but a size swept or mutated after validation can.
    pub fn hit_rate(&self) -> Result<f64, EstimateError> {
        self.hit_rates
            .get(&self.size)
            .copied()
            .ok_or(EstimateError::MissingHitRate { size: self.size })
    }
}

/// The memory model: instruction and data paths plus external latency.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    /// Instruction fetch path.
    pub ifetch: MemoryPath,
    /// Data access path.
    pub data: MemoryPath,
    /// External (off-chip) memory latency in cycles.
    pub external_latency: u32,
    /// Average target instructions fetched per CDFG operation (the paper's
    /// LLVM ops map ~1:1 to MicroBlaze instructions; a higher-level IR
    /// carries a characterized expansion ratio instead). Default 1.0.
    pub fetch_expansion: f64,
    /// Average data-memory accesses per CDFG memory operand (register
    /// spills and reloads add traffic the IR does not show). Default 1.0.
    pub data_expansion: f64,
}

/// A complete Processing Unit Model.
#[derive(Debug, Clone, PartialEq)]
pub struct Pum {
    /// PE name, e.g. `"microblaze"` or `"dct_hw"`.
    pub name: String,
    /// Clock period in picoseconds (for converting cycles to time).
    pub clock_period_ps: u64,
    /// Execution model.
    pub execution: ExecutionModel,
    /// Datapath model.
    pub datapath: Datapath,
    /// Branch delay model; `None` for PEs without speculation (Alg. 2
    /// adds no branch term then).
    pub branch: Option<BranchModel>,
    /// Memory model.
    pub memory: MemoryModel,
}

impl Pum {
    /// Deepest pipeline length, in stages.
    pub fn max_stages(&self) -> usize {
        self.datapath.pipelines.iter().map(|p| p.stages.len()).max().unwrap_or(0)
    }

    /// Whether the PE is pipelined in the sense of Algorithm 2 (more than
    /// one stage ⇒ branch penalties exist).
    pub fn is_pipelined(&self) -> bool {
        self.max_stages() > 1
    }

    /// Steady-state correction subtracted from each block's schedule: the
    /// pipeline fill of `depth - 1` cycles is paid once per mispredicted
    /// branch (Algorithm 2's penalty), not once per basic block.
    pub fn fill_correction(&self) -> u64 {
        self.max_stages().saturating_sub(1) as u64
    }

    /// Looks up the binding of an op class.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::UnmappedClass`] if the PUM does not map it.
    pub fn binding(&self, class: OpClass) -> Result<&OpBinding, EstimateError> {
        self.execution
            .op_map
            .get(&OpClassKey::from(class))
            .ok_or(EstimateError::UnmappedClass { class })
    }

    /// Serializes the PUM to pretty JSON (the tool's interchange format).
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Parses a PUM from JSON and validates it.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::BadPum`] on malformed JSON or on a model
    /// that fails [`Pum::validate`].
    pub fn from_json(text: &str) -> Result<Pum, EstimateError> {
        let value =
            tlm_json::parse(text).map_err(|e| EstimateError::BadPum { message: e.to_string() })?;
        let pum = Pum::from_value(&value)
            .map_err(|e| EstimateError::BadPum { message: e.to_string() })?;
        pum.validate()?;
        Ok(pum)
    }

    /// Checks internal consistency of the model.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::BadPum`] describing the first violation:
    /// empty pipelines, zero-delay modes, out-of-range stage/unit/mode
    /// references, rates outside `[0, 1]`, or a cache whose configured size
    /// has no characterized hit rate.
    pub fn validate(&self) -> Result<(), EstimateError> {
        let bad = |message: String| Err(EstimateError::BadPum { message });
        if self.clock_period_ps == 0 {
            return bad("clock period must be non-zero".into());
        }
        if self.datapath.pipelines.is_empty() {
            return bad("datapath needs at least one pipeline".into());
        }
        for p in &self.datapath.pipelines {
            if p.stages.is_empty() {
                return bad(format!("pipeline `{}` has no stages", p.name));
            }
            for s in &p.stages {
                if s.width == 0 {
                    return bad(format!("stage `{}` has zero width", s.name));
                }
            }
        }
        for u in &self.datapath.units {
            if u.quantity == 0 {
                return bad(format!("unit `{}` has zero quantity", u.name));
            }
            if u.modes.is_empty() {
                return bad(format!("unit `{}` has no modes", u.name));
            }
            for m in &u.modes {
                if m.delay == 0 {
                    return bad(format!("mode `{}.{}` has zero delay", u.name, m.name));
                }
            }
        }
        let n_stages = self.max_stages();
        for (key, b) in &self.execution.op_map {
            if b.transparent {
                continue;
            }
            if b.demand_stage >= n_stages || b.commit_stage >= n_stages {
                return bad(format!("binding {key:?} references stage out of range"));
            }
            if b.demand_stage > b.commit_stage {
                return bad(format!("binding {key:?} demands operands after committing"));
            }
            for usage in &b.usage {
                if usage.stage >= n_stages {
                    return bad(format!("binding {key:?} uses out-of-range stage"));
                }
                let Some(unit) = self.datapath.units.get(usage.fu) else {
                    return bad(format!("binding {key:?} uses unknown unit {}", usage.fu));
                };
                if usage.mode >= unit.modes.len() {
                    return bad(format!(
                        "binding {key:?} uses unknown mode {} of `{}`",
                        usage.mode, unit.name
                    ));
                }
            }
        }
        if let Some(branch) = &self.branch {
            if !(0.0..=1.0).contains(&branch.miss_rate) {
                return bad("branch miss rate outside [0, 1]".into());
            }
        }
        for (field, factor) in [
            ("fetch_expansion", self.memory.fetch_expansion),
            ("data_expansion", self.memory.data_expansion),
        ] {
            // Written so NaN fails too.
            if !(factor > 0.0 && factor.is_finite()) {
                return bad(format!("memory `{field}` must be positive and finite, got {factor}"));
            }
        }
        for (label, path) in [("ifetch", &self.memory.ifetch), ("data", &self.memory.data)] {
            if let MemoryPath::Cached(cache) = path {
                if !cache.hit_rates.contains_key(&cache.size) {
                    return bad(format!(
                        "{label} cache size {} has no characterized hit rate",
                        cache.size
                    ));
                }
                for (&size, &rate) in &cache.hit_rates {
                    if !(0.0..=1.0).contains(&rate) {
                        return bad(format!(
                            "{label} cache hit rate for size {size} outside [0, 1]"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// JSON interchange (manual; the offline build environment has no serde)
// ---------------------------------------------------------------------------

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, JsonError> {
    value.get(key).ok_or_else(|| JsonError::shape(format!("missing field `{key}`")))
}

fn str_field<'a>(value: &'a Value, key: &str) -> Result<&'a str, JsonError> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| JsonError::shape(format!("field `{key}` must be a string")))
}

fn u64_field(value: &Value, key: &str) -> Result<u64, JsonError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| JsonError::shape(format!("field `{key}` must be a non-negative integer")))
}

fn u32_field(value: &Value, key: &str) -> Result<u32, JsonError> {
    u32::try_from(u64_field(value, key)?)
        .map_err(|_| JsonError::shape(format!("field `{key}` does not fit u32")))
}

fn usize_field(value: &Value, key: &str) -> Result<usize, JsonError> {
    usize::try_from(u64_field(value, key)?)
        .map_err(|_| JsonError::shape(format!("field `{key}` does not fit usize")))
}

fn f64_field(value: &Value, key: &str) -> Result<f64, JsonError> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| JsonError::shape(format!("field `{key}` must be a number")))
}

fn array_field<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], JsonError> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| JsonError::shape(format!("field `{key}` must be an array")))
}

impl SchedulingPolicy {
    /// The policy's canonical interchange name.
    pub fn as_str(self) -> &'static str {
        match self {
            SchedulingPolicy::InOrder => "InOrder",
            SchedulingPolicy::Asap => "Asap",
            SchedulingPolicy::Alap => "Alap",
            SchedulingPolicy::List => "List",
        }
    }

    fn from_value(value: &Value) -> Result<SchedulingPolicy, JsonError> {
        match value.as_str() {
            Some("InOrder") => Ok(SchedulingPolicy::InOrder),
            Some("Asap") => Ok(SchedulingPolicy::Asap),
            Some("Alap") => Ok(SchedulingPolicy::Alap),
            Some("List") => Ok(SchedulingPolicy::List),
            _ => Err(JsonError::shape("unknown scheduling policy")),
        }
    }
}

impl OpClassKey {
    /// The snake_case interchange name, also used as the op-map key.
    pub fn as_str(self) -> &'static str {
        match self {
            OpClassKey::Alu => "alu",
            OpClassKey::Mul => "mul",
            OpClassKey::Div => "div",
            OpClassKey::Shift => "shift",
            OpClassKey::Load => "load",
            OpClassKey::Store => "store",
            OpClassKey::Move => "move",
            OpClassKey::Control => "control",
        }
    }

    fn from_str(name: &str) -> Result<OpClassKey, JsonError> {
        match name {
            "alu" => Ok(OpClassKey::Alu),
            "mul" => Ok(OpClassKey::Mul),
            "div" => Ok(OpClassKey::Div),
            "shift" => Ok(OpClassKey::Shift),
            "load" => Ok(OpClassKey::Load),
            "store" => Ok(OpClassKey::Store),
            "move" => Ok(OpClassKey::Move),
            "control" => Ok(OpClassKey::Control),
            _ => Err(JsonError::shape(format!("unknown op class `{name}`"))),
        }
    }
}

impl FuMode {
    fn to_value(&self) -> Value {
        ObjectBuilder::new().field("name", self.name.as_str()).field("delay", self.delay).build()
    }

    fn from_value(value: &Value) -> Result<FuMode, JsonError> {
        Ok(FuMode {
            name: str_field(value, "name")?.to_string(),
            delay: u32_field(value, "delay")?,
        })
    }
}

impl FuncUnit {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("name", self.name.as_str())
            .field("quantity", self.quantity)
            .field("modes", Value::Array(self.modes.iter().map(FuMode::to_value).collect()))
            .build()
    }

    fn from_value(value: &Value) -> Result<FuncUnit, JsonError> {
        Ok(FuncUnit {
            name: str_field(value, "name")?.to_string(),
            quantity: u32_field(value, "quantity")?,
            modes: array_field(value, "modes")?
                .iter()
                .map(FuMode::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl Stage {
    fn to_value(&self) -> Value {
        ObjectBuilder::new().field("name", self.name.as_str()).field("width", self.width).build()
    }

    fn from_value(value: &Value) -> Result<Stage, JsonError> {
        Ok(Stage { name: str_field(value, "name")?.to_string(), width: u32_field(value, "width")? })
    }
}

impl Pipeline {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("name", self.name.as_str())
            .field("stages", Value::Array(self.stages.iter().map(Stage::to_value).collect()))
            .build()
    }

    fn from_value(value: &Value) -> Result<Pipeline, JsonError> {
        Ok(Pipeline {
            name: str_field(value, "name")?.to_string(),
            stages: array_field(value, "stages")?
                .iter()
                .map(Stage::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl Datapath {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("units", Value::Array(self.units.iter().map(FuncUnit::to_value).collect()))
            .field(
                "pipelines",
                Value::Array(self.pipelines.iter().map(Pipeline::to_value).collect()),
            )
            .build()
    }

    fn from_value(value: &Value) -> Result<Datapath, JsonError> {
        Ok(Datapath {
            units: array_field(value, "units")?
                .iter()
                .map(FuncUnit::from_value)
                .collect::<Result<_, _>>()?,
            pipelines: array_field(value, "pipelines")?
                .iter()
                .map(Pipeline::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl StageUsage {
    fn to_value(self) -> Value {
        ObjectBuilder::new()
            .field("stage", self.stage)
            .field("fu", self.fu)
            .field("mode", self.mode)
            .build()
    }

    fn from_value(value: &Value) -> Result<StageUsage, JsonError> {
        Ok(StageUsage {
            stage: usize_field(value, "stage")?,
            fu: usize_field(value, "fu")?,
            mode: usize_field(value, "mode")?,
        })
    }
}

impl OpBinding {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("demand_stage", self.demand_stage)
            .field("commit_stage", self.commit_stage)
            .field("usage", Value::Array(self.usage.iter().map(|u| u.to_value()).collect()))
            .field("transparent", self.transparent)
            .build()
    }

    fn from_value(value: &Value) -> Result<OpBinding, JsonError> {
        Ok(OpBinding {
            demand_stage: usize_field(value, "demand_stage")?,
            commit_stage: usize_field(value, "commit_stage")?,
            usage: array_field(value, "usage")?
                .iter()
                .map(StageUsage::from_value)
                .collect::<Result<_, _>>()?,
            // Optional in the interchange format; absent means false.
            transparent: value.get("transparent").and_then(Value::as_bool).unwrap_or(false),
        })
    }
}

impl ExecutionModel {
    fn to_value(&self) -> Value {
        let op_map = Value::Object(
            self.op_map
                .iter()
                .map(|(key, binding)| (key.as_str().to_string(), binding.to_value()))
                .collect(),
        );
        ObjectBuilder::new().field("policy", self.policy.as_str()).field("op_map", op_map).build()
    }

    fn from_value(value: &Value) -> Result<ExecutionModel, JsonError> {
        let policy = SchedulingPolicy::from_value(field(value, "policy")?)?;
        let entries = field(value, "op_map")?
            .as_object()
            .ok_or_else(|| JsonError::shape("`op_map` must be an object"))?;
        let mut op_map = BTreeMap::new();
        for (key, binding) in entries {
            op_map.insert(OpClassKey::from_str(key)?, OpBinding::from_value(binding)?);
        }
        Ok(ExecutionModel { policy, op_map })
    }
}

impl BranchModel {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("policy", self.policy.as_str())
            .field("penalty", self.penalty)
            .field("miss_rate", self.miss_rate)
            .build()
    }

    fn from_value(value: &Value) -> Result<BranchModel, JsonError> {
        Ok(BranchModel {
            policy: str_field(value, "policy")?.to_string(),
            penalty: u32_field(value, "penalty")?,
            miss_rate: f64_field(value, "miss_rate")?,
        })
    }
}

impl CacheModel {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("size", self.size)
            .field("hit_rates", tlm_json::map_u32_f64_to_value(&self.hit_rates))
            .field("hit_delay", self.hit_delay)
            .field("miss_penalty", self.miss_penalty)
            .build()
    }

    fn from_value(value: &Value) -> Result<CacheModel, JsonError> {
        Ok(CacheModel {
            size: u32_field(value, "size")?,
            hit_rates: tlm_json::value_to_map_u32_f64(field(value, "hit_rates")?)?,
            hit_delay: u32_field(value, "hit_delay")?,
            miss_penalty: u32_field(value, "miss_penalty")?,
        })
    }
}

impl MemoryPath {
    fn to_value(&self) -> Value {
        match self {
            MemoryPath::Hardwired => Value::String("Hardwired".into()),
            MemoryPath::Uncached => Value::String("Uncached".into()),
            MemoryPath::Cached(cache) => {
                Value::Object(vec![("Cached".to_string(), cache.to_value())])
            }
        }
    }

    fn from_value(value: &Value) -> Result<MemoryPath, JsonError> {
        match value {
            Value::String(s) if s == "Hardwired" => Ok(MemoryPath::Hardwired),
            Value::String(s) if s == "Uncached" => Ok(MemoryPath::Uncached),
            Value::Object(_) => {
                let cache = value
                    .get("Cached")
                    .ok_or_else(|| JsonError::shape("memory path object must be `Cached`"))?;
                Ok(MemoryPath::Cached(CacheModel::from_value(cache)?))
            }
            _ => Err(JsonError::shape("bad memory path")),
        }
    }
}

impl MemoryModel {
    fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("ifetch", self.ifetch.to_value())
            .field("data", self.data.to_value())
            .field("external_latency", self.external_latency)
            .field("fetch_expansion", self.fetch_expansion)
            .field("data_expansion", self.data_expansion)
            .build()
    }

    fn from_value(value: &Value) -> Result<MemoryModel, JsonError> {
        Ok(MemoryModel {
            ifetch: MemoryPath::from_value(field(value, "ifetch")?)?,
            data: MemoryPath::from_value(field(value, "data")?)?,
            external_latency: u32_field(value, "external_latency")?,
            // Both expansions are optional in the interchange format.
            fetch_expansion: value.get("fetch_expansion").and_then(Value::as_f64).unwrap_or(1.0),
            data_expansion: value.get("data_expansion").and_then(Value::as_f64).unwrap_or(1.0),
        })
    }
}

impl Pum {
    /// The PUM as a JSON value tree.
    pub fn to_value(&self) -> Value {
        ObjectBuilder::new()
            .field("name", self.name.as_str())
            .field("clock_period_ps", self.clock_period_ps)
            .field("execution", self.execution.to_value())
            .field("datapath", self.datapath.to_value())
            .field("branch", self.branch.as_ref().map_or(Value::Null, BranchModel::to_value))
            .field("memory", self.memory.to_value())
            .build()
    }

    /// Parses a PUM from a JSON value tree (no validation).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the shape does not match the interchange
    /// format.
    pub fn from_value(value: &Value) -> Result<Pum, JsonError> {
        let branch = match value.get("branch") {
            None | Some(Value::Null) => None,
            Some(v) => Some(BranchModel::from_value(v)?),
        };
        Ok(Pum {
            name: str_field(value, "name")?.to_string(),
            clock_period_ps: u64_field(value, "clock_period_ps")?,
            execution: ExecutionModel::from_value(field(value, "execution")?)?,
            datapath: Datapath::from_value(field(value, "datapath")?)?,
            branch,
            memory: MemoryModel::from_value(field(value, "memory")?)?,
        })
    }

    /// Canonical byte encoding of exactly the sub-models Algorithm 1
    /// (optimistic scheduling) reads: the scheduling policy, the operation
    /// mapping table and the datapath. The statistical memory and branch
    /// models are deliberately excluded — Algorithm 1 is independent of
    /// them, which is what makes one schedule reusable across every point
    /// of a cache-size or misprediction sweep.
    ///
    /// The encoding is injective (free-form names are length-prefixed, all
    /// numbers delimited) but deliberately not JSON: it is computed once
    /// per annotation run on the estimation hot path, so it writes one
    /// flat string instead of building a value tree.
    pub fn schedule_domain(&self) -> String {
        let mut out = String::with_capacity(512);
        self.push_schedule_domain(&mut out);
        out
    }

    /// Appends [`Pum::schedule_domain`] to `out`.
    fn push_schedule_domain(&self, out: &mut String) {
        out.push_str("sd1;");
        out.push_str(self.execution.policy.as_str());
        out.push(';');
        for (key, b) in &self.execution.op_map {
            out.push_str(key.as_str());
            out.push('=');
            push_dec(out, b.demand_stage as u64);
            out.push(',');
            push_dec(out, b.commit_stage as u64);
            out.push(',');
            push_dec(out, u64::from(b.transparent));
            out.push('[');
            for u in &b.usage {
                push_dec(out, u.stage as u64);
                out.push('.');
                push_dec(out, u.fu as u64);
                out.push('.');
                push_dec(out, u.mode as u64);
                out.push(';');
            }
            out.push(']');
        }
        out.push('#');
        for unit in &self.datapath.units {
            push_name(out, &unit.name);
            out.push('x');
            push_dec(out, u64::from(unit.quantity));
            out.push('[');
            for m in &unit.modes {
                push_name(out, &m.name);
                out.push('@');
                push_dec(out, u64::from(m.delay));
                out.push(';');
            }
            out.push(']');
        }
        out.push('#');
        for p in &self.datapath.pipelines {
            push_name(out, &p.name);
            out.push('[');
            for s in &p.stages {
                push_name(out, &s.name);
                out.push('w');
                push_dec(out, u64::from(s.width));
                out.push(';');
            }
            out.push(']');
        }
    }

    /// Canonical byte encoding of the **entire** model: the
    /// [`Pum::schedule_domain`] (policy, operation mapping, datapath) plus
    /// every statistical field Algorithm 2 reads — name, clock period,
    /// branch model and memory model. Two PUMs with equal encodings are
    /// indistinguishable to the estimator, and editing any field changes
    /// the encoding, so content-addressed stores can key annotated results
    /// on it without aliasing.
    ///
    /// Like the schedule domain this is a direct flat-string encoder (all
    /// free-form names length-prefixed, floats via [`f64::to_bits`] as 16
    /// hex digits, every number delimited) rather than the JSON interchange
    /// form: it runs on every memoized estimate lookup, so it writes
    /// digits straight into one buffer, without `std::fmt` and with the
    /// schedule domain appended in place.
    pub fn estimate_domain(&self) -> String {
        self.estimate_domain_split().0
    }

    /// [`Pum::estimate_domain`] together with the byte offset at which its
    /// [`Pum::schedule_domain`] suffix starts, so a holder of the encoding
    /// resolves the schedule domain
    /// ([`ScheduleDomain::from_encoding`](crate::cache::ScheduleDomain::from_encoding))
    /// without encoding the PUM a second time.
    pub fn estimate_domain_split(&self) -> (String, usize) {
        fn path(out: &mut String, p: &MemoryPath) {
            match p {
                MemoryPath::Hardwired => out.push('h'),
                MemoryPath::Uncached => out.push('u'),
                MemoryPath::Cached(c) => {
                    out.push('c');
                    push_dec(out, u64::from(c.size));
                    out.push(',');
                    push_dec(out, u64::from(c.hit_delay));
                    out.push(',');
                    push_dec(out, u64::from(c.miss_penalty));
                    out.push('[');
                    for (&size, &rate) in &c.hit_rates {
                        push_dec(out, u64::from(size));
                        out.push('=');
                        push_hex16(out, rate.to_bits());
                        out.push(';');
                    }
                    out.push(']');
                }
            }
        }
        let mut out = String::with_capacity(1024);
        out.push_str("ek1;");
        push_name(&mut out, &self.name);
        out.push(';');
        push_dec(&mut out, self.clock_period_ps);
        out.push(';');
        match &self.branch {
            None => out.push('-'),
            Some(b) => {
                push_name(&mut out, &b.policy);
                out.push(',');
                push_dec(&mut out, u64::from(b.penalty));
                out.push(',');
                push_hex16(&mut out, b.miss_rate.to_bits());
            }
        }
        out.push('#');
        path(&mut out, &self.memory.ifetch);
        path(&mut out, &self.memory.data);
        push_dec(&mut out, u64::from(self.memory.external_latency));
        out.push(';');
        push_hex16(&mut out, self.memory.fetch_expansion.to_bits());
        push_hex16(&mut out, self.memory.data_expansion.to_bits());
        out.push('#');
        let at = out.len();
        self.push_schedule_domain(&mut out);
        (out, at)
    }

    /// The PUM re-pointed at different statistical cache sizes — the sweep
    /// transform of the paper's Tables 2/3 and of every serving request
    /// that asks for a cache sweep. Only [`MemoryPath::Cached`] paths are
    /// touched: a size of 0 means "no cache" (the paper's 0k/0k column) and
    /// degrades the path to [`MemoryPath::Uncached`]; `Hardwired` and
    /// already-`Uncached` paths (custom HW) are returned unchanged. The
    /// schedule domain is untouched, so every sweep point shares Algorithm 1
    /// results through the [`ScheduleCache`](crate::ScheduleCache).
    ///
    /// The result may fail [`Pum::validate`] if the new size was never
    /// characterized ([`EstimateError::MissingHitRate`]); sweep drivers and
    /// the serving layer surface that as a client error.
    #[must_use]
    pub fn with_cache_sizes(&self, icache_bytes: u32, dcache_bytes: u32) -> Pum {
        fn resize(path: &mut MemoryPath, bytes: u32) {
            if let MemoryPath::Cached(cache) = path {
                if bytes == 0 {
                    *path = MemoryPath::Uncached;
                } else {
                    cache.size = bytes;
                }
            }
        }
        let mut pum = self.clone();
        resize(&mut pum.memory.ifetch, icache_bytes);
        resize(&mut pum.memory.data, dcache_bytes);
        pum
    }
}

/// Appends `v` in decimal, as `{}` formats it.
fn push_dec(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Appends `v` as exactly 16 lower-case hex digits, as `{:016x}` formats
/// it.
fn push_hex16(out: &mut String, v: u64) {
    for shift in (0..16).rev() {
        out.push(char::from(b"0123456789abcdef"[(v >> (shift * 4)) as usize & 0xf]));
    }
}

/// Appends a free-form name, length-prefixed: `len:name`.
fn push_name(out: &mut String, name: &str) {
    push_dec(out, name.len() as u64);
    out.push(':');
    out.push_str(name);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;

    #[test]
    fn library_models_validate() {
        for pum in [
            library::microblaze_like(8 * 1024, 4 * 1024),
            library::microblaze_like(0, 0),
            library::custom_hw("dct", 2, 2),
            library::generic_risc(),
            library::superscalar2(),
            library::vliw4(),
        ] {
            pum.validate().unwrap_or_else(|e| panic!("{}: {e}", pum.name));
        }
    }

    /// The `std::fmt` encoders the flat ones replaced, kept as the oracle
    /// their output must match byte for byte (the encodings are cache
    /// keys).
    mod oracle {
        use std::fmt::Write;

        use super::super::{MemoryPath, Pum};

        fn name(out: &mut String, n: &str) {
            let _ = write!(out, "{}:{n}", n.len());
        }

        pub fn schedule_domain(pum: &Pum) -> String {
            let mut out = String::new();
            out.push_str("sd1;");
            out.push_str(pum.execution.policy.as_str());
            out.push(';');
            for (key, b) in &pum.execution.op_map {
                let _ = write!(
                    out,
                    "{}={},{},{}[",
                    key.as_str(),
                    b.demand_stage,
                    b.commit_stage,
                    u8::from(b.transparent)
                );
                for u in &b.usage {
                    let _ = write!(out, "{}.{}.{};", u.stage, u.fu, u.mode);
                }
                out.push(']');
            }
            out.push('#');
            for unit in &pum.datapath.units {
                name(&mut out, &unit.name);
                let _ = write!(out, "x{}[", unit.quantity);
                for m in &unit.modes {
                    name(&mut out, &m.name);
                    let _ = write!(out, "@{};", m.delay);
                }
                out.push(']');
            }
            out.push('#');
            for p in &pum.datapath.pipelines {
                name(&mut out, &p.name);
                out.push('[');
                for s in &p.stages {
                    name(&mut out, &s.name);
                    let _ = write!(out, "w{};", s.width);
                }
                out.push(']');
            }
            out
        }

        pub fn estimate_domain(pum: &Pum) -> String {
            fn bits(out: &mut String, v: f64) {
                let _ = write!(out, "{:016x}", v.to_bits());
            }
            fn path(out: &mut String, p: &MemoryPath) {
                match p {
                    MemoryPath::Hardwired => out.push('h'),
                    MemoryPath::Uncached => out.push('u'),
                    MemoryPath::Cached(c) => {
                        let _ = write!(out, "c{},{},{}[", c.size, c.hit_delay, c.miss_penalty);
                        for (size, rate) in &c.hit_rates {
                            let _ = write!(out, "{size}=");
                            bits(out, *rate);
                            out.push(';');
                        }
                        out.push(']');
                    }
                }
            }
            let mut out = String::new();
            out.push_str("ek1;");
            name(&mut out, &pum.name);
            let _ = write!(out, ";{};", pum.clock_period_ps);
            match &pum.branch {
                None => out.push('-'),
                Some(b) => {
                    name(&mut out, &b.policy);
                    let _ = write!(out, ",{},", b.penalty);
                    bits(&mut out, b.miss_rate);
                }
            }
            out.push('#');
            path(&mut out, &pum.memory.ifetch);
            path(&mut out, &pum.memory.data);
            let _ = write!(out, "{};", pum.memory.external_latency);
            bits(&mut out, pum.memory.fetch_expansion);
            bits(&mut out, pum.memory.data_expansion);
            out.push('#');
            out.push_str(&schedule_domain(pum));
            out
        }
    }

    fn assert_matches_oracle(pum: &Pum, what: &str) {
        assert_eq!(pum.schedule_domain(), oracle::schedule_domain(pum), "{what}: schedule domain");
        assert_eq!(pum.estimate_domain(), oracle::estimate_domain(pum), "{what}: estimate domain");
        let (encoding, at) = pum.estimate_domain_split();
        assert_eq!(encoding[at..], pum.schedule_domain(), "{what}: schedule-domain suffix");
    }

    /// Every library PUM and every checked-in model, each as built and at
    /// every point of the paper's cache sweep.
    #[test]
    fn domain_encoders_match_the_fmt_oracle() {
        let mut pums = vec![
            library::microblaze_like(8 * 1024, 4 * 1024),
            library::microblaze_like(0, 0),
            library::custom_hw("dct", 2, 2),
            library::generic_risc(),
            library::superscalar2(),
            library::vliw4(),
        ];
        let models = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models");
        let mut files: Vec<_> = std::fs::read_dir(models)
            .expect("models directory")
            .map(|entry| entry.expect("models entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        assert!(files.len() >= 6, "models/*.json: {files:?}");
        for file in &files {
            let text = std::fs::read_to_string(file).expect("readable model");
            pums.push(Pum::from_json(&text).unwrap_or_else(|e| panic!("{file:?}: {e}")));
        }
        let sweep = [
            (0, 0),
            (2 << 10, 2 << 10),
            (8 << 10, 4 << 10),
            (16 << 10, 16 << 10),
            (32 << 10, 16 << 10),
        ];
        for pum in &pums {
            assert_matches_oracle(pum, &pum.name);
            for (ic, dc) in sweep {
                assert_matches_oracle(
                    &pum.with_cache_sizes(ic, dc),
                    &format!("{} {ic}/{dc}", pum.name),
                );
            }
        }
    }

    #[test]
    fn domain_encoders_match_the_fmt_oracle_at_edge_values() {
        let base = library::microblaze_like(8 * 1024, 4 * 1024);
        let named = "a:b;c#d[e]é✓";
        let mut edge = base.clone();
        edge.name = named.to_string();
        edge.clock_period_ps = u64::MAX;
        edge.branch =
            Some(BranchModel { policy: named.to_string(), penalty: u32::MAX, miss_rate: f64::NAN });
        edge.memory.external_latency = u32::MAX;
        edge.memory.fetch_expansion = -0.0;
        edge.memory.data_expansion = f64::INFINITY;
        if let MemoryPath::Cached(c) = &mut edge.memory.ifetch {
            c.size = u32::MAX;
            c.hit_delay = 0;
            c.miss_penalty = u32::MAX;
            c.hit_rates.insert(u32::MAX, f64::NEG_INFINITY);
            c.hit_rates.insert(0, -0.0);
            c.hit_rates.insert(1, f64::MIN_POSITIVE);
        }
        for unit in &mut edge.datapath.units {
            unit.name = format!("{}{named}", unit.name);
            unit.quantity = u32::MAX;
            for mode in &mut unit.modes {
                mode.name.push_str(named);
                mode.delay = u32::MAX;
            }
        }
        for p in &mut edge.datapath.pipelines {
            p.name = String::new();
            for s in &mut p.stages {
                s.name = named.to_string();
                s.width = 0;
            }
        }
        for b in edge.execution.op_map.values_mut() {
            b.demand_stage = usize::MAX;
            b.commit_stage = 0;
            b.transparent = !b.transparent;
            for u in &mut b.usage {
                (u.stage, u.fu, u.mode) = (usize::MAX, 0, u32::MAX as usize);
            }
        }
        assert_matches_oracle(&edge, "edge values");
        let mut zero = edge.clone();
        zero.name = String::new();
        zero.clock_period_ps = 0;
        zero.branch = None;
        zero.memory.ifetch = MemoryPath::Hardwired;
        zero.memory.data = MemoryPath::Uncached;
        zero.memory.external_latency = 0;
        zero.memory.fetch_expansion = f64::NEG_INFINITY;
        zero.memory.data_expansion = 0.0;
        assert_matches_oracle(&zero, "zero values");
        for v in [0, 1, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut out = String::new();
            push_dec(&mut out, v);
            assert_eq!(out, v.to_string());
            out.clear();
            push_hex16(&mut out, v);
            assert_eq!(out, format!("{v:016x}"));
        }
    }

    #[test]
    fn json_round_trip() {
        let pum = library::microblaze_like(8 * 1024, 4 * 1024);
        let text = pum.to_json();
        let back = Pum::from_json(&text).expect("round-trips");
        assert_eq!(pum, back);
    }

    #[test]
    fn invalid_json_is_rejected() {
        assert!(matches!(Pum::from_json("{ not json"), Err(EstimateError::BadPum { .. })));
    }

    #[test]
    fn zero_delay_mode_is_rejected() {
        let mut pum = library::custom_hw("bad", 1, 1);
        pum.datapath.units[0].modes[0].delay = 0;
        assert!(pum.validate().is_err());
    }

    #[test]
    fn bad_stage_reference_is_rejected() {
        let mut pum = library::generic_risc();
        if let Some(binding) = pum.execution.op_map.get_mut(&OpClassKey::Alu) {
            binding.commit_stage = 99;
        }
        assert!(pum.validate().is_err());
    }

    #[test]
    fn missing_hit_rate_for_size_is_rejected() {
        let mut pum = library::microblaze_like(8 * 1024, 4 * 1024);
        if let MemoryPath::Cached(cache) = &mut pum.memory.ifetch {
            cache.size = 1234; // size with no characterized rate
        }
        assert!(pum.validate().is_err());
    }

    #[test]
    fn non_finite_expansion_factor_is_rejected_by_name() {
        for bad in [f64::INFINITY, f64::NAN, 0.0, -1.0] {
            let mut pum = library::microblaze_like(8 * 1024, 4 * 1024);
            pum.memory.fetch_expansion = bad;
            let err = pum.validate().expect_err("rejected").to_string();
            assert!(err.contains("fetch_expansion"), "{bad}: {err}");
            let mut pum = library::microblaze_like(8 * 1024, 4 * 1024);
            pum.memory.data_expansion = bad;
            let err = pum.validate().expect_err("rejected").to_string();
            assert!(err.contains("data_expansion"), "{bad}: {err}");
        }
    }

    #[test]
    fn branch_rate_out_of_range_is_rejected() {
        let mut pum = library::microblaze_like(8 * 1024, 4 * 1024);
        if let Some(b) = &mut pum.branch {
            b.miss_rate = 1.5;
        }
        assert!(pum.validate().is_err());
    }

    #[test]
    fn with_cache_sizes_sweeps_only_statistical_models() {
        let base = library::microblaze_like(8 << 10, 4 << 10);
        let swept = base.with_cache_sizes(32 << 10, 16 << 10);
        swept.validate().expect("standard sizes are characterized");
        assert_eq!(base.schedule_domain(), swept.schedule_domain(), "schedule domain unchanged");
        match (&swept.memory.ifetch, &swept.memory.data) {
            (MemoryPath::Cached(i), MemoryPath::Cached(d)) => {
                assert_eq!(i.size, 32 << 10);
                assert_eq!(d.size, 16 << 10);
            }
            other => panic!("paths stayed cached, got {other:?}"),
        }
        // Size 0 degrades to Uncached, as in the paper's 0k/0k column.
        let none = base.with_cache_sizes(0, 0);
        assert_eq!(none.memory.ifetch, MemoryPath::Uncached);
        assert_eq!(none.memory.data, MemoryPath::Uncached);
        // Custom HW has no cached paths; the sweep is a no-op.
        let hw = library::custom_hw("dct", 2, 2);
        assert_eq!(hw.with_cache_sizes(2 << 10, 2 << 10), hw);
        // Uncharacterized sizes survive the transform but fail validation.
        assert!(base.with_cache_sizes(1234, 1234).validate().is_err());
    }

    #[test]
    fn estimate_domain_separates_what_schedule_domain_merges() {
        let base = library::microblaze_like(8 << 10, 4 << 10);
        // A cache-size sweep keeps the schedule domain (Algorithm 1 reuse)
        // but must change the estimate domain (Algorithm 2 inputs differ).
        let swept = base.with_cache_sizes(32 << 10, 16 << 10);
        assert_eq!(base.schedule_domain(), swept.schedule_domain());
        assert_ne!(base.estimate_domain(), swept.estimate_domain());
        // Every statistical field outside the schedule domain is covered.
        let mut renamed = base.clone();
        renamed.name.push('!');
        assert_ne!(base.estimate_domain(), renamed.estimate_domain());
        let mut clocked = base.clone();
        clocked.clock_period_ps += 1;
        assert_ne!(base.estimate_domain(), clocked.estimate_domain());
        let mut branchy = base.clone();
        branchy.branch.as_mut().expect("cpu has a branch model").miss_rate += 0.001;
        assert_ne!(base.estimate_domain(), branchy.estimate_domain());
        let mut unbranched = base.clone();
        unbranched.branch = None;
        assert_ne!(base.estimate_domain(), unbranched.estimate_domain());
        let mut expanded = base.clone();
        expanded.memory.data_expansion *= 1.25;
        assert_ne!(base.estimate_domain(), expanded.estimate_domain());
        let mut rated = base.clone();
        if let MemoryPath::Cached(c) = &mut rated.memory.data {
            *c.hit_rates.iter_mut().next().expect("characterized").1 -= 0.01;
        }
        assert_ne!(base.estimate_domain(), rated.estimate_domain());
        // Equal models encode identically (the memoization contract).
        assert_eq!(base.estimate_domain(), base.clone().estimate_domain());
    }

    #[test]
    fn pipelining_predicates() {
        let cpu = library::microblaze_like(8 * 1024, 4 * 1024);
        assert!(cpu.is_pipelined());
        assert_eq!(cpu.fill_correction(), cpu.max_stages() as u64 - 1);
        let hw = library::custom_hw("dct", 2, 2);
        assert!(!hw.is_pipelined(), "single-stage HW is not pipelined");
        assert_eq!(hw.fill_correction(), 0);
    }
}
