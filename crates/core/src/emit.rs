//! Timed-code generation: the paper's "annotated C" output (§4.3).
//!
//! The paper regenerates C source for each process with a `wait(pid,
//! cycles)` call appended to every basic block, then links it with a
//! SystemC wrapper. In this reproduction the executable timed TLM is built
//! directly from the [`TimedModule`] (see `tlm-platform`), but the annotated
//! source view is still produced here: it is the artifact a user inspects
//! to see *where* estimated time goes, and it keeps the reproduction's
//! pipeline shape faithful to the original tool.
//!
//! Structured control flow was lowered to a CFG before annotation, so the
//! emitted C uses the standard label/goto form.

use std::fmt::Write as _;

use tlm_cdfg::ir::{Module, Op, OpKind, Terminator};
use tlm_cdfg::{ArrayId, FuncId};

use crate::annotate::TimedModule;

/// Renders the whole timed module as annotated C.
pub fn emit_timed_c(timed: &TimedModule) -> String {
    let module = timed.module();
    let mut out = String::new();
    let _ = writeln!(out, "/* Timed code generated for PE model `{}`.", timed.pum_name());
    let _ = writeln!(out, " * wait(pid, cycles) accumulates the estimated delay of the");
    let _ = writeln!(out, " * preceding basic block (applied at transaction boundaries). */");
    let _ = writeln!(out, "#include \"tlm_wrapper.h\"\n");
    for array in &module.arrays {
        if matches!(array.scope, tlm_cdfg::ir::ArrayScope::Global) {
            if array.init.is_empty() {
                let _ = writeln!(out, "static int {}[{}];", c_name(&array.name), array.len);
            } else {
                let vals: Vec<String> =
                    array.init.iter().map(std::string::ToString::to_string).collect();
                let _ = writeln!(
                    out,
                    "static int {}[{}] = {{{}}};",
                    c_name(&array.name),
                    array.len,
                    vals.join(", ")
                );
            }
        }
    }
    out.push('\n');
    for (fid, _) in module.functions_iter() {
        out.push_str(&emit_function(timed, fid));
        out.push('\n');
    }
    out
}

/// Renders one function as annotated C.
///
/// # Panics
///
/// Panics if `fid` is out of range for the module.
pub fn emit_function(timed: &TimedModule, fid: FuncId) -> String {
    let module = timed.module();
    let func = module.function(fid);
    let mut out = String::new();
    let params: Vec<String> = func.params.iter().map(|p| format!("int {p}")).collect();
    let _ = writeln!(
        out,
        "{} {}({}) {{",
        if func.returns_value { "int" } else { "void" },
        c_name(&func.name),
        params.join(", ")
    );
    if func.num_vregs as usize > func.params.len() {
        let regs: Vec<String> =
            (func.params.len()..func.num_vregs as usize).map(|i| format!("v{i}")).collect();
        let _ = writeln!(out, "    int {};", regs.join(", "));
    }
    for &aid in &func.local_arrays {
        let array = module.array(aid);
        let local = array.name.rsplit("::").next().unwrap_or(&array.name);
        if array.init.is_empty() {
            let _ = writeln!(out, "    int {}[{}];", c_name(local), array.len);
        } else {
            let vals: Vec<String> =
                array.init.iter().map(std::string::ToString::to_string).collect();
            let _ = writeln!(
                out,
                "    int {}[{}] = {{{}}};",
                c_name(local),
                array.len,
                vals.join(", ")
            );
        }
    }
    for (bid, block) in func.blocks_iter() {
        let _ = writeln!(out, "bb{}:", bid.0);
        for op in &block.ops {
            let _ = writeln!(out, "    {};", op_to_c(module, op));
        }
        // The paper's annotation: estimated delay of this block.
        let _ = writeln!(out, "    wait(PID, {});", timed.cycles(fid, bid));
        match &block.term {
            Terminator::Jump(b) => {
                let _ = writeln!(out, "    goto bb{};", b.0);
            }
            Terminator::Branch { cond, then_bb, else_bb } => {
                let _ = writeln!(
                    out,
                    "    if ({cond}) goto bb{}; else goto bb{};",
                    then_bb.0, else_bb.0
                );
            }
            Terminator::Return(Some(v)) => {
                let _ = writeln!(out, "    return {v};");
            }
            Terminator::Return(None) => {
                let _ = writeln!(out, "    return;");
            }
        }
    }
    out.push_str("}\n");
    out
}

fn array_c_name(module: &Module, id: ArrayId) -> String {
    let array = module.array(id);
    c_name(array.name.rsplit("::").next().unwrap_or(&array.name))
}

/// Sanitizes an IR name into a C identifier.
fn c_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

fn op_to_c(module: &Module, op: &Op) -> String {
    use tlm_minic::ast::{BinOp, UnOp};
    let dest = op.result.map(|r| format!("{r} = ")).unwrap_or_default();
    let a = |i: usize| op.args[i].to_string();
    match &op.kind {
        OpKind::Const(v) => format!("{dest}{v}"),
        OpKind::Copy => format!("{dest}{}", a(0)),
        OpKind::Un(u) => {
            let sym = match u {
                UnOp::Neg => "-",
                UnOp::Not => "!",
                UnOp::BitNot => "~",
            };
            format!("{dest}{sym}{}", a(0))
        }
        OpKind::Bin(b) => {
            let sym = match b {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::Shl => "<<",
                BinOp::Shr => ">>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::BitAnd => "&",
                BinOp::BitOr => "|",
                BinOp::BitXor => "^",
                BinOp::LogAnd => "&&",
                BinOp::LogOr => "||",
            };
            format!("{dest}{} {sym} {}", a(0), a(1))
        }
        OpKind::Load { array } => format!("{dest}{}[{}]", array_c_name(module, *array), a(0)),
        OpKind::Store { array } => {
            format!("{}[{}] = {}", array_c_name(module, *array), a(0), a(1))
        }
        OpKind::Call { func } => {
            let args: Vec<String> = op.args.iter().map(|v| v.to_string()).collect();
            format!("{dest}{}({})", c_name(&module.function(*func).name), args.join(", "))
        }
        OpKind::ChanRecv { chan } => format!("{dest}ch_recv({})", chan.0),
        OpKind::ChanSend { chan } => format!("ch_send({}, {})", chan.0, a(0)),
        OpKind::Output => format!("out({})", a(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate_uncached;
    use crate::library;

    fn timed(src: &str) -> TimedModule {
        let module =
            tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers");
        annotate_uncached(&module, &library::microblaze_like(8 << 10, 4 << 10)).expect("annotates")
    }

    #[test]
    fn every_block_gets_a_wait_call() {
        let t = timed(
            "int t[8] = {1, 2, 3, 4, 5, 6, 7, 8};
             int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += t[i]; } return s; }
             void main() { out(f(8)); ch_send(0, 1); }",
        );
        let text = emit_timed_c(&t);
        let blocks: usize = t.module().functions.iter().map(|f| f.blocks.len()).sum();
        let waits = text.matches("wait(PID, ").count();
        assert_eq!(waits, blocks, "one wait per basic block:\n{text}");
    }

    #[test]
    fn emitted_text_contains_declarations_and_control_flow() {
        let t = timed(
            "int gain = 3;
             int scale(int x) { if (x > 0) { return x * gain; } return 0; }",
        );
        let text = emit_timed_c(&t);
        for needle in
            ["static int gain[1] = {3}", "int scale(int v0)", "goto bb", "if (v", "return"]
        {
            assert!(text.contains(needle), "missing `{needle}`:\n{text}");
        }
    }

    #[test]
    fn channel_intrinsics_survive_emission() {
        let t = timed("void main() { int v = ch_recv(4); ch_send(5, v); }");
        let text = emit_timed_c(&t);
        assert!(text.contains("ch_recv(4)"));
        assert!(text.contains("ch_send(5, "));
    }

    #[test]
    fn local_arrays_are_declared_with_initializers() {
        let t = timed("int f() { int w[3] = {7, 8, 9}; return w[1]; }");
        let text = emit_timed_c(&t);
        assert!(text.contains("int w[3] = {7, 8, 9};"), "{text}");
    }
}
