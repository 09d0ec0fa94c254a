//! Online register assignment: the cheap half of split register allocation.
//!
//! The offline compiler already decided *which values deserve registers*
//! (the portable [`SpillOrder`](splitc_vbc::SpillOrder) annotation). This
//! module performs the target-specific *assignment*: values that live across
//! basic blocks ("globals") either get a dedicated physical register or a
//! dedicated stack slot, and block-local temporaries are handled by a small
//! scratch allocator with eviction. Three modes reproduce the comparison of
//! the paper's Section 4:
//!
//! * [`RegAllocMode::SplitAnnotations`] — the ranking of the globals is read
//!   off the offline annotation (the split approach);
//! * [`RegAllocMode::OnlineGreedy`] — what a fast JIT does without hints:
//!   first-come-first-served assignment, no ranking analysis;
//! * [`RegAllocMode::OnlineAnalyze`] — the JIT recomputes the ranking itself
//!   (one more pass and a sort), matching the split code quality but paying
//!   the analysis cost online.
//!
//! # The algorithm
//!
//! Lowering numbers the virtual registers of each class `0..count`, so
//! `class offset + index` is a dense key and everything the pass knows about
//! a register is one entry of one table (`VState`). Per function:
//!
//! 1. **Globals**, one forward scan. A register is global iff it is a
//!    parameter or *upward-exposed* in some block: read there before any
//!    write in that block (a per-block "defined" stamp decides). The same
//!    scan records the order in which registers first appear, and lays every
//!    instruction's use operands and definition out in flat tables: it is
//!    the only walk that matches on an instruction before the rewrite
//!    writes the assigned registers back.
//! 2. **Ranking**: parameters, then the mode's order (annotation / none /
//!    score), then whatever is left in order of first appearance; a `ranked`
//!    flag per register de-duplicates.
//! 3. **Placement**: in ranking order, each global takes the next register of
//!    its class until only `SCRATCH_REGS` are left, then a stack slot.
//! 4. **Rewrite**, block by block. One reverse scan over the block's rows
//!    of the operand table chains each operand to the next instruction
//!    reading the same register, leaving every register's cursor
//!    (`next_use`) at its first read. The forward rewrite then resolves each
//!    operand from the table (reloading spilled globals and evicted locals
//!    into scratch registers), advances the cursors, frees what died,
//!    resolves the definition, and writes the physical registers into the
//!    instruction in one walk. Instructions are moved, not cloned.
//!
//! Every step is linear in the number of instructions and operands, with two
//! bounded factors: an operand looks through the earlier operands of its own
//! instruction (three at most, except for `Call` arguments), and an eviction —
//! only when the scratch pool of the class is exhausted — looks through that
//! pool once (at most the register file of the class). `OnlineAnalyze` adds
//! its scan and an `O(g log g)` sort of the `g` globals. No step allocates
//! per instruction: the tables live in the `RegAssigner` and are cleared and
//! reused from block to block and function to function; what is allocated is
//! the output (one vector per block, the function's name and block list)
//! and the tables' growth to the largest function seen.
//!
//! # Why the globals need no liveness fixpoint
//!
//! "Live across a block boundary" is `⋃ live_in[b] ∪ ⋃ live_out[b]` of the
//! backward dataflow `live_in[b] = use[b] ∪ (live_out[b] ∖ def[b])`,
//! `live_out[b] = ⋃ live_in[succ]`, where `use[b]` is the upward-exposed set.
//! In the least fixpoint every element of a `live_in` was put there by some
//! block's `use` set and then only propagated, and every `live_out` is a
//! union of `live_in`s, so the union of all of them is contained in
//! `⋃ use[b]`; and `use[b] ⊆ live_in[b]` gives the other inclusion. The set
//! the fixpoint was run for is therefore `params ∪ ⋃ use[b]`, which step 1
//! reads off directly (unreachable blocks included, as before).
//!
//! # Ordering invariants
//!
//! The generated code is pinned bit for bit (`tests/jit_golden.rs`, the
//! artifact store, the benchmark's exact counters), and it depends on
//! orders that used to fall out of `BTreeSet`/`BTreeMap` iteration:
//!
//! * `OnlineAnalyze` scores the globals in `(class, index)` order — dense
//!   key order — and sorts stably, so ties keep that order;
//! * the scratch pool of a class is handed out lowest register first and
//!   reused most-recently-freed first (a stack); within one instruction the
//!   scratch copies of spilled globals are freed before the dying locals,
//!   each group in operand order;
//! * an eviction walks the occupied scratch registers in register order and
//!   replaces its candidate only on a strictly farther next use, so the
//!   lowest register wins ties; the victim is spilled iff it is read again;
//! * a resident's next use counts the current instruction while its operand
//!   is still unresolved, and no longer once it is (resolved operands are
//!   pinned and never candidates), which is why the cursors may be advanced
//!   as soon as the instruction's uses are resolved;
//! * stack slots are numbered in the order they are first needed: spilled
//!   globals in ranking order, then evictions in program order.

use crate::compile::{JitError, JitStats};
use crate::lowering::{class_index, VirtualFunc};
use crate::mir;
use splitc_targets::{MBlock, MFunction, MInst, PReg, RegClass, TargetDesc};
use splitc_vbc::Function;
use std::ops::Range;

/// How the online compiler decides which values keep registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RegAllocMode {
    /// Use the offline spill-order annotation (split register allocation).
    #[default]
    SplitAnnotations,
    /// No analysis at all: rank values by first appearance.
    OnlineGreedy,
    /// Recompute the ranking online (slow JIT, good code).
    OnlineAnalyze,
}

/// Number of physical registers reserved per class as scratch for the
/// block-local allocator and for reloads of spilled values.
const SCRATCH_REGS: u16 = 2;

/// "No such instruction / register": the next-use position of a value that is
/// not read again in its block, and the occupant of an empty scratch register.
const NONE: u32 = u32::MAX;

/// The register classes in [`class_index`] order.
const CLASSES: [RegClass; 3] = [RegClass::Int, RegClass::Float, RegClass::Vec];

fn class_name(c: RegClass) -> &'static str {
    match c {
        RegClass::Int => "integer",
        RegClass::Float => "floating-point",
        RegClass::Vec => "vector",
    }
}

/// Dense number of virtual register `r`, given the per-class offsets.
fn dense(base: [usize; 3], r: PReg) -> usize {
    base[class_index(r.class)] + usize::from(r.index)
}

/// Where a virtual register's value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Loc {
    /// A block-local temporary outside its live range.
    #[default]
    Nowhere,
    /// A global that owns this physical register for the whole function.
    Kept(u16),
    /// A global that lives in this stack slot.
    Spilled(u32),
    /// A block-local temporary resident in this scratch register.
    Reg(u16),
    /// A block-local temporary evicted to this stack slot.
    Slot(u32),
}

/// Everything the assignment tracks about one virtual register.
#[derive(Debug, Clone, Copy, Default)]
struct VState {
    loc: Loc,
    /// Read before written in some block, or a parameter.
    global: bool,
    /// Already entered in the first-appearance order.
    seen: bool,
    /// Already entered in the keep ranking.
    ranked: bool,
    /// The last block (by stamp) that touched the register: the block that
    /// defined it during the globals scan, the block that accessed it during
    /// the online analysis, the block that reads it during the rewrite.
    stamp: u32,
    /// During the rewrite of a block that reads the register: the first
    /// instruction at or after the current one that reads it, or [`NONE`].
    next_use: u32,
    /// Accesses and distinct accessing blocks ([`RegAllocMode::OnlineAnalyze`]).
    accesses: u32,
    span: u32,
}

/// One use operand of the block being rewritten.
#[derive(Debug, Clone, Copy)]
struct UseOp {
    reg: PReg,
    /// The next later instruction of the block reading `reg`, or [`NONE`].
    next: u32,
}

/// The register assigner for one online compilation: the target's register
/// file plus the tables of the pass, which are cleared and reused from block
/// to block and from function to function.
pub(crate) struct RegAssigner<'t> {
    target: &'t TargetDesc,
    mode: RegAllocMode,
    /// Physical registers per class.
    limit: [u16; 3],

    // --- Per function. ---
    /// Dense-number offset of each class.
    base: [usize; 3],
    vregs: Vec<VState>,
    /// Every virtual register in order of first appearance (definition before
    /// uses within an instruction).
    appearance: Vec<PReg>,
    num_globals: u64,
    /// Globals from most to least worth a physical register.
    ranked: Vec<PReg>,
    scored: Vec<(PReg, f64)>,
    /// Physical registers handed to kept globals, per class; the registers
    /// from there up to the class limit are the scratch pool.
    kept_count: [u16; 3],
    next_slot: u32,
    /// Source of block stamps, unique within the function.
    stamp: u32,

    /// The use operands of the function, instruction after instruction, laid
    /// out by the globals scan.
    ops: Vec<UseOp>,
    /// `ops[starts[i]..starts[i + 1]]` are the use operands of instruction
    /// `i` (numbered across the function).
    starts: Vec<u32>,
    /// The register instruction `i` defines, if any.
    defs: Vec<Option<PReg>>,

    // --- Per block. ---
    /// Free scratch registers per class, next to hand out last.
    free: [Vec<u16>; 3],
    /// Dense number of the local resident in each physical register, per
    /// class, or [`NONE`].
    occupant: [Vec<u32>; 3],

    // --- Per instruction. ---
    /// The physical register of each use operand, in operand order.
    phys: Vec<PReg>,
    /// Scratch registers holding reloaded spilled globals.
    temp: Vec<PReg>,
}

impl<'t> RegAssigner<'t> {
    pub(crate) fn new(target: &'t TargetDesc, mode: RegAllocMode) -> Self {
        RegAssigner {
            target,
            mode,
            limit: [
                target.int_regs,
                target.float_regs,
                target.vector.map(|v| v.regs).unwrap_or(0),
            ],
            base: [0; 3],
            vregs: Vec::new(),
            appearance: Vec::new(),
            num_globals: 0,
            ranked: Vec::new(),
            scored: Vec::new(),
            kept_count: [0; 3],
            next_slot: 0,
            stamp: 0,
            ops: Vec::new(),
            starts: Vec::new(),
            defs: Vec::new(),
            free: Default::default(),
            occupant: Default::default(),
            phys: Vec::new(),
            temp: Vec::new(),
        }
    }

    /// Assign physical registers and stack slots, producing final machine
    /// code. `vf`'s instructions are moved out; its tables stay for the next
    /// function.
    pub(crate) fn assign(
        &mut self,
        vf: &mut VirtualFunc,
        vbc_func: &Function,
        stats: &mut JitStats,
    ) -> Result<MFunction, JitError> {
        stats.regalloc_work += vf.emitted;
        let name = vbc_func.name.as_str();

        let [ints, floats, vecs] = vf.counts.map(|n| n as usize);
        self.base = [0, ints, ints + floats];
        self.vregs.clear();
        self.vregs.resize(ints + floats + vecs, VState::default());
        self.stamp = 0;

        self.find_globals(vf);
        self.rank_globals(vf, vbc_func, stats);
        self.place_globals(name)?;

        // Parameters must end up in registers: the simulator's calling
        // convention delivers arguments to registers, not to stack slots. A
        // spilled parameter is delivered into a scratch register and stored
        // by the prologue.
        let mut params = std::mem::take(&mut vf.params);
        let mut prologue: Vec<MInst> = Vec::new();
        for (i, p) in params.iter_mut().enumerate() {
            let c = class_index(p.class);
            p.index = match self.vregs[dense(self.base, *p)].loc {
                Loc::Kept(r) => r,
                Loc::Spilled(slot) => {
                    let pool = self.limit[c] - self.kept_count[c];
                    let deliver = PReg {
                        class: p.class,
                        index: self.kept_count[c] + (i % usize::from(pool)) as u16,
                    };
                    // Two spilled parameters delivered into one register
                    // would overwrite each other; reject that corner case
                    // explicitly rather than miscompile.
                    if prologue
                        .iter()
                        .any(|s| matches!(s, MInst::Spill { src, .. } if *src == deliver))
                    {
                        return Err(JitError::RegisterPressure {
                            function: name.to_owned(),
                            detail: "too many parameters for the register file".into(),
                        });
                    }
                    prologue.push(MInst::Spill { slot, src: deliver });
                    deliver.index
                }
                loc => unreachable!("parameter {p} is a global but was placed {loc:?}"),
            };
        }

        // Rewrite every block; the first one starts with the prologue.
        let mut blocks = Vec::with_capacity(vf.num_blocks());
        let mut insts = vf.insts.drain(..);
        for bounds in vf.bounds.windows(2) {
            let mut out = std::mem::take(&mut prologue);
            stats.static_spills += out.len() as u64;
            self.rewrite_block(bounds[0]..bounds[1], &mut insts, &mut out, name, stats)?;
            blocks.push(MBlock { insts: out });
        }

        Ok(MFunction {
            name: name.to_owned(),
            params,
            blocks,
            num_slots: self.next_slot,
        })
    }

    /// Mark the globals — the values that live across a block boundary — and
    /// record the order in which registers first appear. See the module docs
    /// for why one scan finds exactly what a liveness fixpoint would.
    ///
    /// The same walk, the only one that matches on the instructions before
    /// they are rewritten, lays every instruction's use operands and
    /// definition out in `ops`, `starts` and `defs`.
    fn find_globals(&mut self, vf: &VirtualFunc) {
        let base = self.base;
        let (vregs, appearance) = (&mut self.vregs, &mut self.appearance);
        let (ops, starts, defs) = (&mut self.ops, &mut self.starts, &mut self.defs);
        appearance.clear();
        ops.clear();
        starts.clear();
        defs.clear();
        let mut num_globals = 0;
        for p in &vf.params {
            let v = &mut vregs[dense(base, *p)];
            num_globals += u64::from(!v.global);
            v.global = true;
        }
        for b in 0..vf.num_blocks() {
            self.stamp += 1;
            let stamp = self.stamp;
            let mut appear = |v: &mut VState, r: PReg| {
                if !v.seen {
                    v.seen = true;
                    appearance.push(r);
                }
            };
            for inst in &vf.insts[vf.bounds[b]..vf.bounds[b + 1]] {
                let start = ops.len();
                starts.push(start as u32);
                let def = mir::operands(inst, |reg| ops.push(UseOp { reg, next: NONE }));
                defs.push(def);
                if let Some(d) = def {
                    appear(&mut vregs[dense(base, d)], d);
                }
                for op in &ops[start..] {
                    let v = &mut vregs[dense(base, op.reg)];
                    if v.stamp != stamp && !v.global {
                        v.global = true;
                        num_globals += 1;
                    }
                    appear(v, op.reg);
                }
                if let Some(d) = def {
                    vregs[dense(base, d)].stamp = stamp;
                }
            }
        }
        starts.push(ops.len() as u32);
        self.num_globals = num_globals;
    }

    /// The use operands of instruction `i`, from the table the globals scan
    /// laid out.
    fn uses_of(&self, i: usize) -> Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }

    /// Rank the globals from most to least worth keeping in a physical
    /// register, into `self.ranked`.
    fn rank_globals(&mut self, vf: &VirtualFunc, vbc_func: &Function, stats: &mut JitStats) {
        if self.mode == RegAllocMode::OnlineAnalyze {
            self.score_globals(vf, stats);
        }
        let base = self.base;
        let (vregs, ranked) = (&mut self.vregs, &mut self.ranked);
        ranked.clear();
        let mut rank = |r: PReg| {
            let v = &mut vregs[dense(base, r)];
            if v.global && !v.ranked {
                v.ranked = true;
                ranked.push(r);
            }
        };

        // Parameters always come first: every mode keeps them if at all possible.
        for p in &vf.params {
            rank(*p);
        }
        match self.mode {
            RegAllocMode::SplitAnnotations => {
                // Translate the portable bytecode ranking to machine registers.
                // It is an untrusted hint: a register this function does not
                // have is skipped, and one ranked twice keeps its first place.
                if let Some(order) = &vbc_func.annotations.spill_order {
                    stats.annotations_used = true;
                    stats.regalloc_work += order.keep_order.len() as u64;
                    for vreg in &order.keep_order {
                        if let Some(Some(p)) = vf.vbc_map.get(vreg.index()) {
                            rank(*p);
                        }
                    }
                }
            }
            RegAllocMode::OnlineGreedy => stats.regalloc_work += self.num_globals,
            RegAllocMode::OnlineAnalyze => {
                for (r, _) in &self.scored {
                    rank(*r);
                }
            }
        }
        // Whatever is left — every global under `OnlineGreedy`, the machine
        // registers the offline step never saw (scalarization lanes, say)
        // under `SplitAnnotations`, nothing under `OnlineAnalyze` — follows
        // in order of first appearance.
        for r in &self.appearance {
            rank(*r);
        }
    }

    /// Recompute use counts and spans online — the work the split approach
    /// avoids — and sort the globals by accesses per block into `self.scored`.
    fn score_globals(&mut self, vf: &VirtualFunc, stats: &mut JitStats) {
        let base = self.base;
        let vregs = &mut self.vregs;
        for b in 0..vf.num_blocks() {
            self.stamp += 1;
            let stamp = self.stamp;
            let mut access = |r: PReg| {
                let v = &mut vregs[dense(base, r)];
                if v.global {
                    v.accesses += 1;
                    if v.stamp != stamp {
                        v.stamp = stamp;
                        v.span += 1;
                    }
                }
            };
            for i in vf.bounds[b]..vf.bounds[b + 1] {
                stats.regalloc_work += 1;
                if let Some(d) = self.defs[i] {
                    access(d);
                }
                let uses = self.starts[i] as usize..self.starts[i + 1] as usize;
                for op in &self.ops[uses] {
                    access(op.reg);
                }
            }
        }
        // Score in register order, so that the stable sort breaks ties by
        // class, then index.
        self.scored.clear();
        for (c, class) in CLASSES.into_iter().enumerate() {
            for index in 0..vf.counts[c] {
                let v = &vregs[base[c] + index as usize];
                if v.global {
                    let score = f64::from(v.accesses) / f64::from(v.span.max(1));
                    let index = index as u16;
                    self.scored.push((PReg { class, index }, score));
                }
            }
        }
        self.scored
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    }

    /// Hand out the non-scratch registers of each class in ranking order;
    /// the globals that get none live in a stack slot each.
    fn place_globals(&mut self, fname: &str) -> Result<(), JitError> {
        self.kept_count = [0; 3];
        self.next_slot = 0;
        for r in &self.ranked {
            let c = class_index(r.class);
            if self.limit[c] < SCRATCH_REGS {
                return Err(JitError::RegisterPressure {
                    function: fname.to_owned(),
                    detail: format!(
                        "target {} has no {} registers",
                        self.target.name,
                        class_name(r.class)
                    ),
                });
            }
            let loc = &mut self.vregs[dense(self.base, *r)].loc;
            if self.kept_count[c] < self.limit[c] - SCRATCH_REGS {
                *loc = Loc::Kept(self.kept_count[c]);
                self.kept_count[c] += 1;
            } else {
                *loc = Loc::Spilled(self.next_slot);
                self.next_slot += 1;
            }
        }
        Ok(())
    }

    /// Rewrite the instructions `block` (numbered across the function),
    /// taken in order from `insts`, into `out`.
    fn rewrite_block(
        &mut self,
        block: Range<usize>,
        insts: &mut impl Iterator<Item = MInst>,
        out: &mut Vec<MInst>,
        fname: &str,
        stats: &mut JitStats,
    ) -> Result<(), JitError> {
        let base = self.base;
        self.stamp += 1;
        let stamp = self.stamp;
        let first = block.start;
        let block_ops = self.starts[first] as usize..self.starts[block.end] as usize;

        // Chain each use operand of the block to the next instruction reading
        // the same register by one reverse scan over the table. The scan
        // leaves every register read in the block stamped with the block and
        // `next_use` at its first read (instructions numbered from the
        // block's first).
        //
        // Spill code the placement already implies: a reload per read of a
        // spilled global, a store per write of one.
        let mut spill_code = 0;
        for i in block.clone().rev() {
            if let Some(d) = self.defs[i] {
                spill_code +=
                    usize::from(matches!(self.vregs[dense(base, d)].loc, Loc::Spilled(_)));
            }
            let uses = self.uses_of(i);
            for op in &mut self.ops[uses.clone()] {
                let v = &self.vregs[dense(base, op.reg)];
                spill_code += usize::from(matches!(v.loc, Loc::Spilled(_)));
                if v.stamp == stamp {
                    op.next = v.next_use;
                }
            }
            for op in &self.ops[uses] {
                let v = &mut self.vregs[dense(base, op.reg)];
                v.stamp = stamp;
                v.next_use = (i - first) as u32;
            }
        }
        // Size the block once: only the evictions of block-local values, which
        // depend on the walk below, can still make it grow.
        out.reserve_exact(block.len() + spill_code);

        // Every register not handed to a kept global is scratch, lowest
        // index first.
        for c in 0..3 {
            self.free[c].clear();
            self.free[c].extend((self.kept_count[c]..self.limit[c]).rev());
            self.occupant[c].clear();
            self.occupant[c].resize(usize::from(self.limit[c]), NONE);
        }

        let pressure_error = |class: RegClass| JitError::RegisterPressure {
            function: fname.to_owned(),
            detail: format!("not enough {} scratch registers", class_name(class)),
        };

        for i in block {
            let idx = i - first;
            let mut inst = insts.next().expect("one instruction per table row");
            let operands = self.uses_of(i);
            self.phys.clear();

            // --- Resolve uses. ---
            for k in operands.clone() {
                let u = self.ops[k].reg;
                let earlier = &self.ops[operands.start..k];
                if let Some(j) = earlier.iter().position(|op| op.reg == u) {
                    self.phys.push(self.phys[j]);
                    continue;
                }
                let v = dense(base, u);
                let index = match self.vregs[v].loc {
                    Loc::Kept(r) | Loc::Reg(r) => r,
                    Loc::Spilled(slot) | Loc::Slot(slot) => {
                        let s = self
                            .alloc_scratch(u.class, out, stats)
                            .ok_or_else(|| pressure_error(u.class))?;
                        let dst = PReg {
                            class: u.class,
                            index: s,
                        };
                        out.push(MInst::Reload { slot, dst });
                        stats.static_reloads += 1;
                        if let Loc::Slot(_) = self.vregs[v].loc {
                            self.vregs[v].loc = Loc::Reg(s);
                            self.occupant[class_index(u.class)][usize::from(s)] = v as u32;
                        } else {
                            // A spilled global only visits: the register is
                            // free again once the instruction has read it.
                            self.temp.push(dst);
                        }
                        s
                    }
                    Loc::Nowhere => {
                        return Err(JitError::Internal(format!(
                            "virtual register {u} used before definition in {fname} (instruction {idx}: {inst:?})"
                        )));
                    }
                };
                self.phys.push(PReg {
                    class: u.class,
                    index,
                });
            }

            // Free the scratch copies of spilled globals (their value has
            // been read) and the locals whose last use is this instruction;
            // move every read register's next use past this instruction.
            for r in self.temp.drain(..) {
                self.free[class_index(r.class)].push(r.index);
            }
            for op in &self.ops[operands] {
                let v = &mut self.vregs[dense(base, op.reg)];
                v.next_use = op.next;
                if let (Loc::Reg(s), NONE) = (v.loc, op.next) {
                    v.loc = Loc::Nowhere;
                    let c = class_index(op.reg.class);
                    self.free[c].push(s);
                    self.occupant[c][usize::from(s)] = NONE;
                }
            }

            // --- Resolve the definition. ---
            let mut post_spill: Option<MInst> = None;
            let mut def_index = 0;
            if let Some(d) = self.defs[i] {
                let c = class_index(d.class);
                let v = dense(base, d);
                def_index = match self.vregs[v].loc {
                    Loc::Kept(r) | Loc::Reg(r) => r,
                    Loc::Spilled(slot) => {
                        let s = self
                            .alloc_scratch(d.class, out, stats)
                            .ok_or_else(|| pressure_error(d.class))?;
                        let src = PReg {
                            class: d.class,
                            index: s,
                        };
                        post_spill = Some(MInst::Spill { slot, src });
                        self.free[c].push(s);
                        s
                    }
                    // Block-local temporary.
                    Loc::Slot(_) | Loc::Nowhere => {
                        let s = self
                            .alloc_scratch(d.class, out, stats)
                            .ok_or_else(|| pressure_error(d.class))?;
                        self.vregs[v].loc = Loc::Reg(s);
                        self.occupant[c][usize::from(s)] = v as u32;
                        s
                    }
                };

                // A local that nothing in the block reads can release its
                // register immediately.
                if let (Loc::Reg(s), true) = (self.vregs[v].loc, self.vregs[v].stamp != stamp) {
                    self.vregs[v].loc = Loc::Nowhere;
                    self.free[c].push(s);
                    self.occupant[c][usize::from(s)] = NONE;
                }
            }
            mir::write_operands(&mut inst, &self.phys, def_index);

            // Drop trivial moves that the assignment made redundant.
            let redundant = matches!(&inst, MInst::Mov { dst, src } if dst == src);
            if !redundant {
                out.push(inst);
            }
            if let Some(spill) = post_spill {
                out.push(spill);
                stats.static_spills += 1;
            }
        }

        // Locals do not outlive their block.
        for op in &self.ops[block_ops] {
            let loc = &mut self.vregs[dense(base, op.reg)].loc;
            if let Loc::Reg(_) | Loc::Slot(_) = loc {
                *loc = Loc::Nowhere;
            }
        }
        Ok(())
    }

    /// Allocate one scratch register of `class`, evicting the block-local value
    /// with the farthest next use if necessary. Returns `None` when every scratch
    /// register is pinned by the current instruction.
    fn alloc_scratch(
        &mut self,
        class: RegClass,
        out: &mut Vec<MInst>,
        stats: &mut JitStats,
    ) -> Option<u16> {
        let c = class_index(class);
        if let Some(s) = self.free[c].pop() {
            return Some(s);
        }
        // Evict the resident local with the farthest next use that is not
        // pinned, i.e. not already chosen for an operand of the current
        // instruction; the lowest register wins a tie. A resident read by the
        // current instruction but not pinned yet has `next_use` at this very
        // instruction, so it goes last and is spilled, never dropped.
        let mut best: Option<(u16, u32, u32)> = None;
        for s in self.kept_count[c]..self.limit[c] {
            let holder = self.occupant[c][usize::from(s)];
            if holder == NONE || self.phys.contains(&PReg { class, index: s }) {
                continue;
            }
            let next = self.vregs[holder as usize].next_use;
            if best.is_none_or(|(_, _, n)| next > n) {
                best = Some((s, holder, next));
            }
        }
        let (s, victim, next) = best?;
        self.vregs[victim as usize].loc = if next != NONE {
            // Still needed later: spill it to a fresh slot.
            let slot = self.next_slot;
            self.next_slot += 1;
            out.push(MInst::Spill {
                slot,
                src: PReg { class, index: s },
            });
            stats.static_spills += 1;
            Loc::Slot(slot)
        } else {
            Loc::Nowhere
        };
        self.occupant[c][usize::from(s)] = NONE;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_module, JitOptions};
    use splitc_minic::compile_source;
    use splitc_opt::{optimize_module, OptOptions};
    use splitc_targets::{MachineValue, PreparedProgram, PreparedSimulator};

    const PRESSURE: &str = r#"
        fn horner(n: i32, x: *f32, y: *f32) {
            let c0: f32 = 1.5; let c1: f32 = 2.5; let c2: f32 = 3.5; let c3: f32 = 4.5;
            let c4: f32 = 5.5; let c5: f32 = 6.5; let c6: f32 = 7.5; let c7: f32 = 8.5;
            for (let i: i32 = 0; i < n; i = i + 1) {
                let v: f32 = x[i];
                y[i] = ((((((v * c7 + c6) * v + c5) * v + c4) * v + c3) * v + c2) * v + c1) * v + c0;
            }
        }
    "#;

    fn run_horner(target: &TargetDesc, mode: RegAllocMode) -> (Vec<f32>, u64, u64) {
        let mut m = compile_source(PRESSURE, "k").unwrap();
        optimize_module(&mut m, &OptOptions::scalar_only());
        splitc_opt::annotate_spill_orders(&mut m);
        let opts = JitOptions {
            regalloc: mode,
            allow_simd: true,
            fuse: true,
        };
        let (program, _stats) = compile_module(&m, target, &opts).unwrap();
        let n = 64usize;
        let mut mem = vec![0u8; 1 << 14];
        let xbase = 64usize;
        let ybase = 64 + 4 * n;
        for i in 0..n {
            mem[xbase + 4 * i..xbase + 4 * i + 4].copy_from_slice(&(i as f32 * 0.01).to_le_bytes());
        }
        let prepared = PreparedProgram::prepare(&program, target).unwrap();
        let mut sim = PreparedSimulator::new(&prepared);
        sim.run(
            "horner",
            &[
                MachineValue::Int(n as i64),
                MachineValue::Int(xbase as i64),
                MachineValue::Int(ybase as i64),
            ],
            &mut mem,
        )
        .unwrap();
        let ys: Vec<f32> = (0..n)
            .map(|i| {
                let mut b = [0u8; 4];
                b.copy_from_slice(&mem[ybase + 4 * i..ybase + 4 * i + 4]);
                f32::from_le_bytes(b)
            })
            .collect();
        let stats = sim.stats();
        (ys, stats.spill_stores + stats.spill_reloads, stats.cycles)
    }

    fn expected_horner(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let v = i as f32 * 0.01;
                let c = [1.5f32, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5];
                ((((((v * c[7] + c[6]) * v + c[5]) * v + c[4]) * v + c[3]) * v + c[2]) * v + c[1])
                    * v
                    + c[0]
            })
            .collect()
    }

    #[test]
    fn all_modes_produce_correct_code_under_pressure() {
        let target = TargetDesc::x86_sse();
        for mode in [
            RegAllocMode::SplitAnnotations,
            RegAllocMode::OnlineGreedy,
            RegAllocMode::OnlineAnalyze,
        ] {
            let (ys, _, _) = run_horner(&target, mode);
            let want = expected_horner(64);
            for (a, b) in ys.iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "{mode:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn split_annotations_do_not_spill_more_than_greedy() {
        // On a register-starved target the annotation-guided assignment must
        // be at least as good as the no-analysis greedy assignment.
        let target = TargetDesc::x86_sse();
        let (_, split_spills, _) = run_horner(&target, RegAllocMode::SplitAnnotations);
        let (_, greedy_spills, _) = run_horner(&target, RegAllocMode::OnlineGreedy);
        assert!(
            split_spills <= greedy_spills,
            "split {split_spills} vs greedy {greedy_spills}"
        );
    }

    #[test]
    fn plenty_of_registers_means_no_dynamic_spills_in_simple_kernels() {
        let mut m = compile_source("fn add(a: i32, b: i32) -> i32 { return a + b; }", "k").unwrap();
        splitc_opt::annotate_spill_orders(&mut m);
        let target = TargetDesc::powerpc();
        let (program, stats) = compile_module(&m, &target, &JitOptions::default()).unwrap();
        assert_eq!(stats.static_spills, 0);
        let prepared = PreparedProgram::prepare(&program, &target).unwrap();
        let mut sim = PreparedSimulator::new(&prepared);
        let mut mem = vec![0u8; 64];
        let out = sim
            .run(
                "add",
                &[MachineValue::Int(2), MachineValue::Int(40)],
                &mut mem,
            )
            .unwrap();
        assert_eq!(out, Some(MachineValue::Int(42)));
        assert_eq!(sim.stats().spill_stores, 0);
    }
}
