//! JSON decode of complete platform descriptions — the serving request
//! format.
//!
//! `tlm-serve` accepts design requests over the network; this module turns
//! the platform half of such a request into a [`Platform`]. The format
//! mirrors [`PlatformBuilder`]:
//!
//! ```json
//! {
//!   "name": "my-design",
//!   "pes": [
//!     {"name": "cpu", "pum": "microblaze", "rtos": {"context_switch_cycles": 120}},
//!     {"name": "hw",  "pum": { /* full PUM interchange object */ }}
//!   ],
//!   "buses": [
//!     {"name": "bus0", "period_ps": 10000, "sync_overhead": 4, "cycles_per_word": 2}
//!   ],
//!   "processes": [
//!     {"name": "p0", "pe": "cpu", "source": "void main() { out(1); }",
//!      "entry": "main", "args": []}
//!   ],
//!   "channels": [
//!     {"chan": 0, "bus": "bus0", "capacity": 64}
//!   ],
//!   "optimize": true
//! }
//! ```
//!
//! `pum` is either a full PUM interchange object ([`Pum::from_value`]) or
//! a library preset name (`"microblaze"`, `"generic_risc"`,
//! `"superscalar2"`, `"vliw4"`). `pe`/`bus` references may be indices or
//! names. `buses` and `channels` are optional — unbound channels get the
//! same auto-binding as [`PlatformBuilder::build`]. `optimize` (default
//! `true`) runs the scalar cleanup passes, matching how the built-in
//! designs are lowered.
//!
//! Every failure — malformed JSON shape, an unparsable MiniC source (as
//! the caller's front-end reports it), a PUM that fails validation, a
//! dangling reference — comes back as a
//! [`PlatformError`] with a message naming the offending element, which
//! the server maps to an HTTP 400. Nothing in this path panics on
//! untrusted input.

use std::sync::Arc;

use tlm_cdfg::ir::Module;
use tlm_cdfg::ChanId;
use tlm_core::{library, Pum};
use tlm_desim::SimTime;
use tlm_json::Value;

use crate::desc::{BusId, PeId, Platform, PlatformBuilder, PlatformError};
use crate::rtos::RtosModel;

fn err(message: impl Into<String>) -> PlatformError {
    PlatformError { message: message.into() }
}

fn obj_field<'a>(value: &'a Value, key: &str, what: &str) -> Result<&'a Value, PlatformError> {
    value.get(key).ok_or_else(|| err(format!("{what}: missing field `{key}`")))
}

fn str_field<'a>(value: &'a Value, key: &str, what: &str) -> Result<&'a str, PlatformError> {
    obj_field(value, key, what)?
        .as_str()
        .ok_or_else(|| err(format!("{what}: field `{key}` must be a string")))
}

fn u64_field(value: &Value, key: &str, what: &str) -> Result<u64, PlatformError> {
    obj_field(value, key, what)?
        .as_u64()
        .ok_or_else(|| err(format!("{what}: field `{key}` must be a non-negative integer")))
}

/// Decodes a PUM that is either a library preset name or a full
/// interchange object; validated either way.
fn pum_of(value: &Value, what: &str) -> Result<Pum, PlatformError> {
    let pum = match value {
        Value::String(preset) => match preset.as_str() {
            "microblaze" => library::microblaze_like(8 << 10, 4 << 10),
            "generic_risc" => library::generic_risc(),
            "superscalar2" => library::superscalar2(),
            "vliw4" => library::vliw4(),
            other => {
                return Err(err(format!(
                    "{what}: unknown PUM preset `{other}` \
                     (expected microblaze, generic_risc, superscalar2 or vliw4, \
                     or a full PUM object)"
                )))
            }
        },
        Value::Object(_) => {
            Pum::from_value(value).map_err(|e| err(format!("{what}: bad PUM object: {e}")))?
        }
        _ => return Err(err(format!("{what}: `pum` must be a preset name or an object"))),
    };
    pum.validate().map_err(|e| err(format!("{what}: {e}")))?;
    Ok(pum)
}

/// Resolves a PE reference that is an index or a name.
fn pe_ref(value: &Value, names: &[String], what: &str) -> Result<PeId, PlatformError> {
    if let Some(idx) = value.as_usize() {
        if idx < names.len() {
            return Ok(PeId(idx));
        }
        return Err(err(format!("{what}: PE index {idx} out of range ({} PEs)", names.len())));
    }
    if let Some(name) = value.as_str() {
        if let Some(idx) = names.iter().position(|n| n == name) {
            return Ok(PeId(idx));
        }
        return Err(err(format!("{what}: unknown PE `{name}`")));
    }
    Err(err(format!("{what}: PE reference must be an index or a name")))
}

/// Resolves a bus reference (index or name); `null` means a PE-local
/// channel.
fn bus_ref(value: &Value, names: &[String], what: &str) -> Result<Option<BusId>, PlatformError> {
    match value {
        Value::Null => Ok(None),
        _ => {
            if let Some(idx) = value.as_usize() {
                if idx < names.len() {
                    return Ok(Some(BusId(idx)));
                }
                return Err(err(format!(
                    "{what}: bus index {idx} out of range ({} buses)",
                    names.len()
                )));
            }
            if let Some(name) = value.as_str() {
                if let Some(idx) = names.iter().position(|n| n == name) {
                    return Ok(Some(BusId(idx)));
                }
                return Err(err(format!("{what}: unknown bus `{name}`")));
            }
            Err(err(format!("{what}: bus reference must be null, an index or a name")))
        }
    }
}

/// A caller-supplied MiniC front-end for [`platform_from_value_with`]: maps
/// `(source, what, optimize)` — the process source, a description of the
/// offending element for error messages, and the platform's `optimize`
/// flag — to the lowered module.
pub type FrontendFn<'a> = &'a mut dyn FnMut(&str, &str, bool) -> Result<Arc<Module>, PlatformError>;

/// Decodes a platform description from a parsed JSON value, lowering every
/// process source through `frontend`.
///
/// The artifact pipeline plugs its cached front-end in here
/// (`tlm_pipeline::Pipeline::design_from_value`), so repeated requests for
/// the same source share one module.
///
/// # Errors
///
/// Returns [`PlatformError`] naming the offending element when the shape
/// is wrong, a PUM fails validation, or a PE/bus/entry reference dangles;
/// front-end failures are whatever the callback returns.
pub fn platform_from_value_with(
    value: &Value,
    frontend: FrontendFn<'_>,
) -> Result<Platform, PlatformError> {
    if value.as_object().is_none() {
        return Err(err("platform: expected a JSON object"));
    }
    let name = str_field(value, "name", "platform")?;
    let optimize = value.get("optimize").and_then(Value::as_bool).unwrap_or(true);
    let mut builder = PlatformBuilder::new(name);

    // PEs.
    let pes = obj_field(value, "pes", "platform")?
        .as_array()
        .ok_or_else(|| err("platform: `pes` must be an array"))?;
    if pes.is_empty() {
        return Err(err("platform: needs at least one PE"));
    }
    let mut pe_names: Vec<String> = Vec::with_capacity(pes.len());
    for (i, pe) in pes.iter().enumerate() {
        let what = format!("pes[{i}]");
        let pe_name = str_field(pe, "name", &what)?;
        if pe_names.iter().any(|n| n == pe_name) {
            return Err(err(format!("{what}: duplicate PE name `{pe_name}`")));
        }
        let pum = pum_of(obj_field(pe, "pum", &what)?, &what)?;
        let id = builder.add_pe(pe_name, pum);
        if let Some(rtos) = pe.get("rtos") {
            let model = RtosModel::from_value(rtos)
                .map_err(|e| err(format!("{what}: bad RTOS model: {e}")))?;
            builder.set_rtos(id, model)?;
        }
        pe_names.push(pe_name.to_string());
    }

    // Buses (optional).
    let mut bus_names: Vec<String> = Vec::new();
    if let Some(buses) = value.get("buses") {
        let buses = buses.as_array().ok_or_else(|| err("platform: `buses` must be an array"))?;
        for (i, bus) in buses.iter().enumerate() {
            let what = format!("buses[{i}]");
            let bus_name = str_field(bus, "name", &what)?;
            if bus_names.iter().any(|n| n == bus_name) {
                return Err(err(format!("{what}: duplicate bus name `{bus_name}`")));
            }
            let period_ps = u64_field(bus, "period_ps", &what)?;
            if period_ps == 0 {
                return Err(err(format!("{what}: `period_ps` must be non-zero")));
            }
            builder.add_bus(
                bus_name,
                SimTime::from_ps(period_ps),
                u64_field(bus, "sync_overhead", &what)?,
                u64_field(bus, "cycles_per_word", &what)?,
            );
            bus_names.push(bus_name.to_string());
        }
    }

    // Processes.
    let processes = obj_field(value, "processes", "platform")?
        .as_array()
        .ok_or_else(|| err("platform: `processes` must be an array"))?;
    for (i, proc) in processes.iter().enumerate() {
        let what = format!("processes[{i}]");
        let proc_name = str_field(proc, "name", &what)?;
        let pe = pe_ref(obj_field(proc, "pe", &what)?, &pe_names, &what)?;
        let source = str_field(proc, "source", &what)?;
        let entry = proc.get("entry").map_or(Ok("main"), |v| {
            v.as_str().ok_or_else(|| err(format!("{what}: `entry` must be a string")))
        })?;
        let args: Vec<i64> = match proc.get("args") {
            None => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .enumerate()
                .map(|(j, v)| {
                    v.as_i64().ok_or_else(|| err(format!("{what}: args[{j}] must be an integer")))
                })
                .collect::<Result<_, _>>()?,
            Some(_) => return Err(err(format!("{what}: `args` must be an array of integers"))),
        };
        let module = frontend(source, &format!("{what} (`{proc_name}`)"), optimize)?;
        builder.add_process_arc(proc_name, module, entry, &args, pe)?;
    }

    // Explicit channel bindings (optional).
    if let Some(channels) = value.get("channels") {
        let channels =
            channels.as_array().ok_or_else(|| err("platform: `channels` must be an array"))?;
        for (i, chan) in channels.iter().enumerate() {
            let what = format!("channels[{i}]");
            let id = u64_field(chan, "chan", &what)?;
            let id = u32::try_from(id)
                .map_err(|_| err(format!("{what}: channel id {id} does not fit u32")))?;
            let bus = match chan.get("bus") {
                None => None,
                Some(v) => bus_ref(v, &bus_names, &what)?,
            };
            let capacity = match chan.get("capacity") {
                None => 64,
                Some(v) => v
                    .as_usize()
                    .filter(|&c| c > 0)
                    .ok_or_else(|| err(format!("{what}: `capacity` must be a positive integer")))?,
            };
            builder.bind_channel(ChanId(id), bus, capacity);
        }
    }

    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes `text` through a plain parse → lower → optimize front-end.
    fn decode(text: &str) -> Result<Platform, PlatformError> {
        let value = tlm_json::parse(text).expect("test JSON parses");
        platform_from_value_with(&value, &mut |source, what, optimize| {
            let program = tlm_minic::parse(source)
                .map_err(|e| err(format!("{what}: source does not parse: {e}")))?;
            let mut module = tlm_cdfg::lower::lower(&program)
                .map_err(|e| err(format!("{what}: source does not lower: {e}")))?;
            if optimize {
                tlm_cdfg::passes::optimize(&mut module);
            }
            Ok(Arc::new(module))
        })
    }

    const TWO_PE: &str = r#"{
        "name": "demo",
        "pes": [
            {"name": "cpu", "pum": "microblaze"},
            {"name": "risc", "pum": "generic_risc"}
        ],
        "buses": [{"name": "bus0", "period_ps": 10000, "sync_overhead": 4, "cycles_per_word": 2}],
        "processes": [
            {"name": "prod", "pe": "cpu", "source": "void main() { ch_send(0, 7); }"},
            {"name": "cons", "pe": 1, "source": "void main() { out(ch_recv(0)); }",
             "entry": "main", "args": []}
        ],
        "channels": [{"chan": 0, "bus": "bus0", "capacity": 8}]
    }"#;

    #[test]
    fn full_description_decodes() {
        let p = decode(TWO_PE).expect("decodes");
        assert_eq!(p.name, "demo");
        assert_eq!(p.pes.len(), 2);
        assert_eq!(p.processes.len(), 2);
        assert_eq!(p.channels[&ChanId(0)].capacity, 8);
        assert_eq!(p.channels[&ChanId(0)].bus, Some(BusId(0)));
    }

    #[test]
    fn inline_pum_object_decodes_and_validates() {
        let pum = library::custom_hw("dct", 2, 2).to_value().to_compact();
        let text = format!(
            r#"{{"name": "hw", "pes": [{{"name": "hw", "pum": {pum}}}],
                "processes": [{{"name": "p", "pe": 0, "source": "void main() {{ out(1); }}"}}]}}"#
        );
        let p = decode(&text).expect("decodes");
        assert_eq!(p.pes[0].pum.name, "dct");
    }

    #[test]
    fn errors_name_the_offending_element() {
        let cases: &[(&str, &str)] = &[
            (r#"{"name": "x", "pes": [], "processes": []}"#, "at least one PE"),
            (
                r#"{"name": "x", "pes": [{"name": "a", "pum": "nope"}], "processes": []}"#,
                "unknown PUM preset",
            ),
            (
                r#"{"name": "x", "pes": [{"name": "a", "pum": "microblaze"}],
                   "processes": [{"name": "p", "pe": "ghost", "source": "void main() {}"}]}"#,
                "unknown PE `ghost`",
            ),
            (
                r#"{"name": "x", "pes": [{"name": "a", "pum": "microblaze"}],
                   "processes": [{"name": "p", "pe": 0, "source": "int main( {}"}]}"#,
                "does not parse",
            ),
            (
                r#"{"name": "x", "pes": [{"name": "a", "pum": "microblaze"}],
                   "processes": [{"name": "p", "pe": 0, "source": "void main() {}",
                                  "args": [1.5]}]}"#,
                "args[0]",
            ),
            (
                r#"{"name": "x", "pes": [{"name": "a", "pum": "microblaze"},
                                          {"name": "a", "pum": "microblaze"}],
                   "processes": []}"#,
                "duplicate PE name",
            ),
        ];
        for (text, needle) in cases {
            let e = decode(text).expect_err(needle);
            assert!(e.message.contains(needle), "`{}` not in `{}`", needle, e.message);
        }
    }

    #[test]
    fn invalid_inline_pum_is_rejected() {
        // Structurally fine, semantically invalid: zero clock period.
        let mut pum = library::generic_risc();
        pum.clock_period_ps = 0;
        let text = format!(
            r#"{{"name": "x", "pes": [{{"name": "a", "pum": {}}}],
                "processes": [{{"name": "p", "pe": 0, "source": "void main() {{}}"}}]}}"#,
            pum.to_value().to_compact()
        );
        let e = decode(&text).expect_err("invalid PUM");
        assert!(e.message.contains("clock period"), "{}", e.message);
    }

    #[test]
    fn rtos_attachment_decodes() {
        let text = r#"{
            "name": "x",
            "pes": [{"name": "cpu", "pum": "microblaze",
                     "rtos": {"context_switch_cycles": 99}}],
            "processes": [{"name": "p", "pe": 0, "source": "void main() { out(1); }"}]
        }"#;
        let p = decode(text).expect("decodes");
        assert_eq!(p.pes[0].rtos, Some(RtosModel { context_switch_cycles: 99 }));
    }
}
