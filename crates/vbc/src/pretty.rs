//! Human-readable textual listing of bytecode.
//!
//! The listing is intended for debugging and documentation; it is not a parseable
//! assembly format. [`Function`] and [`Module`] implement [`std::fmt::Display`]
//! through the helpers here.

use crate::function::Function;
use crate::inst::Inst;
use crate::module::Module;
use std::fmt;

/// Format one instruction as a listing line (without indentation).
pub fn format_inst(inst: &Inst) -> String {
    match inst {
        Inst::Const { dst, ty, imm } => format!("{dst} = const.{ty} {imm}"),
        Inst::Move { dst, ty, src } => format!("{dst} = mov.{ty} {src}"),
        Inst::Bin {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => format!("{dst} = {op}.{ty} {lhs}, {rhs}"),
        Inst::Un { op, ty, dst, src } => format!("{dst} = {op}.{ty} {src}"),
        Inst::Cmp {
            op,
            ty,
            dst,
            lhs,
            rhs,
        } => format!("{dst} = cmp.{op}.{ty} {lhs}, {rhs}"),
        Inst::Cast { dst, to, src, from } => format!("{dst} = cast.{from}.{to} {src}"),
        Inst::Load {
            dst,
            ty,
            addr,
            offset,
        } => format!("{dst} = load.{ty} [{addr}{offset:+}]"),
        Inst::Store {
            ty,
            addr,
            offset,
            value,
        } => format!("store.{ty} [{addr}{offset:+}], {value}"),
        Inst::Call { dst, site } => {
            let callee = &site.callee;
            let args = site
                .args
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            match dst {
                Some(d) => format!("{d} = call {callee}({args})"),
                None => format!("call {callee}({args})"),
            }
        }
        Inst::VecWidth { dst, elem } => format!("{dst} = vec.width.{elem}"),
        Inst::VecSplat { dst, elem, src } => format!("{dst} = vec.splat.{elem} {src}"),
        Inst::VecLoad {
            dst,
            elem,
            addr,
            offset,
        } => format!("{dst} = vec.load.{elem} [{addr}{offset:+}]"),
        Inst::VecStore {
            elem,
            addr,
            offset,
            value,
        } => {
            format!("vec.store.{elem} [{addr}{offset:+}], {value}")
        }
        Inst::VecBin {
            op,
            elem,
            dst,
            lhs,
            rhs,
        } => format!("{dst} = vec.{op}.{elem} {lhs}, {rhs}"),
        Inst::VecReduce { op, elem, dst, src } => format!("{dst} = vec.reduce.{op}.{elem} {src}"),
        Inst::Jump { target } => format!("jump {target}"),
        Inst::Branch {
            cond,
            then_bb,
            else_bb,
        } => format!("branch {cond}, {then_bb}, {else_bb}"),
        Inst::Ret { value } => match value {
            Some(v) => format!("ret {v}"),
            None => "ret".to_owned(),
        },
    }
}

/// Write the full listing of a function to `f`.
pub fn write_function(out: &mut fmt::Formatter<'_>, func: &Function) -> fmt::Result {
    let params = func
        .params
        .iter()
        .map(|(r, t)| format!("{r}: {t}"))
        .collect::<Vec<_>>()
        .join(", ");
    let ret = func.ret.map(|t| format!(" -> {t}")).unwrap_or_default();
    writeln!(out, "fn {}({params}){ret} {{", func.name)?;
    if let Some(order) = &func.annotations.spill_order {
        let ranked: Vec<_> = order.keep_order.iter().map(ToString::to_string).collect();
        writeln!(out, "  ;; @keep_order = [{}]", ranked.join(", "))?;
    }
    if let Some(traits) = &func.annotations.kernel_traits {
        writeln!(out, "  ;; @kernel_traits = {traits:?}")?;
    }
    for b in &func.blocks {
        writeln!(out, "{}:", b.id)?;
        for inst in &b.insts {
            writeln!(out, "  {}", format_inst(inst))?;
        }
    }
    writeln!(out, "}}")
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_function(f, self)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ";; module {}", self.name)?;
        for func in self.functions() {
            writeln!(f)?;
            write_function(f, func)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;
    use crate::types::{ScalarType, Type};

    #[test]
    fn listing_contains_blocks_registers_and_annotations() {
        let mut b = FunctionBuilder::new(
            "axpy",
            &[Type::Scalar(ScalarType::F32), Type::Scalar(ScalarType::F32)],
            Some(Type::Scalar(ScalarType::F32)),
        );
        let a = b.param(0);
        let x = b.param(1);
        let y = b.bin(BinOp::Mul, ScalarType::F32, a, x);
        b.ret(Some(y));
        let mut f = b.finish();
        f.annotations.spill_order = Some(crate::SpillOrder {
            keep_order: vec![x, a],
        });
        f.annotations.kernel_traits = Some(crate::KernelTraits {
            uses_fp: true,
            ..Default::default()
        });

        let text = f.to_string();
        assert!(text.contains("fn axpy(%0: f32, %1: f32) -> f32 {"));
        assert!(text.contains("bb0:"));
        assert!(text.contains("%2 = mul.f32 %0, %1"));
        assert!(text.contains("ret %2"));
        assert!(text.contains(";; @keep_order = [%1, %0]"));
        assert!(text.contains(";; @kernel_traits = KernelTraits { uses_fp: true,"));
    }

    #[test]
    fn module_listing_includes_all_functions() {
        let mut m = crate::Module::new("demo");
        let mut b = FunctionBuilder::new("one", &[], None);
        b.ret(None);
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("two", &[], None);
        b.ret(None);
        m.add_function(b.finish());
        let text = m.to_string();
        assert!(text.contains(";; module demo"));
        assert!(text.contains("fn one()"));
        assert!(text.contains("fn two()"));
    }

    #[test]
    fn every_instruction_kind_formats() {
        use crate::inst::{BlockId, CmpOp, Immediate, ReduceOp, UnOp, VReg};
        let samples = vec![
            Inst::Const {
                dst: VReg(0),
                ty: ScalarType::F32,
                imm: Immediate::Float(1.5),
            },
            Inst::Move {
                dst: VReg(1),
                ty: ScalarType::I32,
                src: VReg(0),
            },
            Inst::Un {
                op: UnOp::Neg,
                ty: ScalarType::I32,
                dst: VReg(1),
                src: VReg(0),
            },
            Inst::Cmp {
                op: CmpOp::Le,
                ty: ScalarType::I32,
                dst: VReg(2),
                lhs: VReg(0),
                rhs: VReg(1),
            },
            Inst::Cast {
                dst: VReg(4),
                to: ScalarType::F32,
                src: VReg(0),
                from: ScalarType::I32,
            },
            Inst::Load {
                dst: VReg(5),
                ty: ScalarType::U8,
                addr: VReg(0),
                offset: -4,
            },
            Inst::Store {
                ty: ScalarType::U8,
                addr: VReg(0),
                offset: 8,
                value: VReg(5),
            },
            Inst::call(None, "f", vec![VReg(0), VReg(1)]),
            Inst::VecWidth {
                dst: VReg(6),
                elem: ScalarType::U16,
            },
            Inst::VecSplat {
                dst: VReg(7),
                elem: ScalarType::U16,
                src: VReg(6),
            },
            Inst::VecLoad {
                dst: VReg(8),
                elem: ScalarType::U16,
                addr: VReg(0),
                offset: 0,
            },
            Inst::VecStore {
                elem: ScalarType::U16,
                addr: VReg(0),
                offset: 0,
                value: VReg(8),
            },
            Inst::VecBin {
                op: BinOp::Max,
                elem: ScalarType::U16,
                dst: VReg(9),
                lhs: VReg(8),
                rhs: VReg(7),
            },
            Inst::VecReduce {
                op: ReduceOp::Max,
                elem: ScalarType::U16,
                dst: VReg(10),
                src: VReg(9),
            },
            Inst::Jump { target: BlockId(1) },
            Inst::Branch {
                cond: VReg(2),
                then_bb: BlockId(1),
                else_bb: BlockId(2),
            },
            Inst::Ret { value: None },
        ];
        for inst in samples {
            assert!(!format_inst(&inst).is_empty());
        }
    }
}
