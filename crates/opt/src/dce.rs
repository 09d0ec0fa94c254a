//! Dead-code elimination.
//!
//! Layout: a round needs only how many times each register is read, one
//! register-indexed array of counts that every round refills and, in
//! [`eliminate_dead_code_module`], every function reuses.

use splitc_vbc::{Function, Module};

/// Remove instructions whose result is never used and that have no side
/// effects, iterating to a fixed point. Returns the number of instructions
/// removed.
pub fn eliminate_dead_code(f: &mut Function) -> usize {
    eliminate_with(f, &mut Vec::new())
}

/// [`eliminate_dead_code`], counting each round's uses in `uses`.
fn eliminate_with(f: &mut Function, uses: &mut Vec<u32>) -> usize {
    let mut removed_total = 0;
    loop {
        uses.clear();
        uses.resize(f.num_vregs(), 0);
        for inst in f.blocks.iter().flat_map(|b| &b.insts) {
            inst.for_each_use(|u| uses[u.index()] += 1);
        }
        let mut removed = 0;
        for block in &mut f.blocks {
            let before = block.insts.len();
            block.insts.retain(|inst| {
                if inst.has_side_effects() || inst.is_terminator() {
                    return true;
                }
                match inst.dst() {
                    Some(d) => uses[d.index()] != 0,
                    None => true,
                }
            });
            removed += before - block.insts.len();
        }
        removed_total += removed;
        if removed == 0 {
            return removed_total;
        }
    }
}

/// Run [`eliminate_dead_code`] over every function of a module.
pub fn eliminate_dead_code_module(m: &mut Module) -> usize {
    let mut uses = Vec::new();
    m.functions_mut()
        .iter_mut()
        .map(|f| eliminate_with(f, &mut uses))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_vbc::{BinOp, FunctionBuilder, ScalarType, Type};

    #[test]
    fn removes_transitively_dead_chains() {
        let mut b = FunctionBuilder::new(
            "f",
            &[Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let x = b.param(0);
        // Dead chain: d1 feeds d2, neither reaches the return.
        let d1 = b.bin(BinOp::Add, ScalarType::I32, x, x);
        let d2 = b.bin(BinOp::Mul, ScalarType::I32, d1, d1);
        let _ = d2;
        let live = b.bin(BinOp::Sub, ScalarType::I32, x, x);
        b.ret(Some(live));
        let mut f = b.finish();
        let removed = eliminate_dead_code(&mut f);
        assert_eq!(removed, 2);
        assert_eq!(f.num_insts(), 2);
    }

    #[test]
    fn keeps_side_effecting_instructions() {
        let mut b = FunctionBuilder::new("f", &[Type::Scalar(ScalarType::Ptr)], None);
        let p = b.param(0);
        let v = b.load(ScalarType::I32, p, 0); // result unused but loads are pure: removable
        let c = b.const_int(ScalarType::I32, 3);
        b.store(ScalarType::I32, p, 0, c); // must stay
        let _ = v;
        b.ret(None);
        let mut f = b.finish();
        eliminate_dead_code(&mut f);
        let kinds: Vec<_> = f
            .block(f.entry)
            .insts
            .iter()
            .map(splitc_vbc::format_inst)
            .collect();
        assert!(kinds.iter().any(|s| s.starts_with("store")));
        assert!(
            !kinds.iter().any(|s| s.contains("= load")),
            "dead load should go: {kinds:?}"
        );
    }

    #[test]
    fn module_wrapper_sums_removals() {
        let mut m = splitc_vbc::Module::new("m");
        for name in ["a", "b"] {
            let mut b = FunctionBuilder::new(name, &[Type::Scalar(ScalarType::I32)], None);
            let x = b.param(0);
            let dead = b.bin(BinOp::Add, ScalarType::I32, x, x);
            let _ = dead;
            b.ret(None);
            m.add_function(b.finish());
        }
        assert_eq!(eliminate_dead_code_module(&mut m), 2);
    }
}
