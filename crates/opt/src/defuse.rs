//! Definition/use chains over the (non-SSA) bytecode.
//!
//! Layout: two register-indexed `Rows` tables of [`InstPos`], definitions
//! and uses, filled in program order after a counting pass: four
//! allocations whatever the size of the function. Dead-code elimination,
//! folding and the vectorizer recompute it on every round of their loops,
//! in place ([`DefUse::recompute`]), so a round allocates only when the
//! function outgrew the arrays.

use crate::rows::Rows;
use splitc_vbc::{BlockId, Function, Inst, VReg};

/// A position inside a function: block id plus instruction index in the block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstPos {
    /// The containing block.
    pub block: BlockId,
    /// The index of the instruction within the block.
    pub index: usize,
}

/// Definition and use sites for every virtual register of a function.
#[derive(Debug, Clone, Default)]
pub struct DefUse {
    defs: Rows<InstPos>,
    uses: Rows<InstPos>,
}

impl DefUse {
    /// Compute def/use chains for `f`. Each register's sites are in program
    /// order; an instruction that reads a register twice lists it twice.
    pub fn compute(f: &Function) -> Self {
        let mut du = DefUse::default();
        du.recompute(f);
        du
    }

    /// Recompute the chains for `f` (changed since, or another function) in
    /// this table's arrays.
    pub fn recompute(&mut self, f: &Function) {
        let rows = f.num_vregs();
        let (defs, uses) = (self.defs.counts(rows), self.uses.counts(rows));
        for inst in f.blocks.iter().flat_map(|b| &b.insts) {
            if let Some(d) = inst.dst() {
                defs[d.index()] += 1;
            }
            inst.for_each_use(|u| uses[u.index()] += 1);
        }
        self.defs.fill();
        self.uses.fill();
        for block in &f.blocks {
            for (index, inst) in block.insts.iter().enumerate() {
                let pos = InstPos {
                    block: block.id,
                    index,
                };
                if let Some(d) = inst.dst() {
                    self.defs.push(d.index(), pos);
                }
                inst.for_each_use(|u| self.uses.push(u.index(), pos));
            }
        }
        self.defs.seal();
        self.uses.seal();
    }

    /// All definition sites of `r` (parameters have no explicit definition site).
    pub fn defs(&self, r: VReg) -> &[InstPos] {
        self.defs.row(r.index())
    }

    /// All use sites of `r`.
    pub fn uses(&self, r: VReg) -> &[InstPos] {
        self.uses.row(r.index())
    }

    /// If `r` is defined by exactly one instruction, return its position.
    pub fn single_def(&self, r: VReg) -> Option<InstPos> {
        match self.defs(r) {
            [single] => Some(*single),
            _ => None,
        }
    }

    /// `true` if `r` has no uses anywhere in the function.
    pub fn is_dead(&self, r: VReg) -> bool {
        self.uses(r).is_empty()
    }
}

/// Fetch the instruction at `pos`.
///
/// # Panics
///
/// Panics if `pos` is out of range for `f`.
pub fn inst_at(f: &Function, pos: InstPos) -> &Inst {
    &f.block(pos.block).insts[pos.index]
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitc_vbc::{BinOp, FunctionBuilder, ScalarType, Type};

    #[test]
    fn tracks_defs_and_uses() {
        let mut b = FunctionBuilder::new(
            "f",
            &[Type::Scalar(ScalarType::I32)],
            Some(Type::Scalar(ScalarType::I32)),
        );
        let x = b.param(0);
        let one = b.const_int(ScalarType::I32, 1);
        let y = b.bin(BinOp::Add, ScalarType::I32, x, one);
        let z = b.bin(BinOp::Mul, ScalarType::I32, y, y);
        b.ret(Some(z));
        let f = b.finish();
        let du = DefUse::compute(&f);

        assert!(du.defs(x).is_empty(), "parameters have no definition site");
        assert!(du.single_def(y).is_some());
        assert!(!du.is_dead(one));

        let def_z = du.single_def(z).unwrap();
        assert!(matches!(
            inst_at(&f, def_z),
            Inst::Bin { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn multiple_definitions_are_not_single() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let t = b.new_vreg(ScalarType::I32);
        let a = b.const_int(ScalarType::I32, 1);
        let c = b.const_int(ScalarType::I32, 2);
        b.push(Inst::Move {
            dst: t,
            ty: ScalarType::I32,
            src: a,
        });
        b.push(Inst::Move {
            dst: t,
            ty: ScalarType::I32,
            src: c,
        });
        b.ret(None);
        let f = b.finish();
        let du = DefUse::compute(&f);
        assert_eq!(du.defs(t).len(), 2);
        assert!(du.single_def(t).is_none());
        assert!(du.is_dead(t));
    }
}
