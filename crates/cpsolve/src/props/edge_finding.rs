//! Θ-tree cumulative edge-finding per `(resource, kind)` slot pool.
//!
//! This is the solver's strong inference rung. Per pool it runs two
//! symmetric passes (the second on the time-reversed instance so the same
//! code filters upper bounds):
//!
//! 1. **Overload check** (Vilím-style, O(n log n)): sweep tasks in
//!    ascending latest-completion-time order, inserting assigned tasks into
//!    the Θ-tree; if the energy envelope ever exceeds `C · lct`, the node
//!    is infeasible. Candidate (not-yet-assigned) tasks ride along as
//!    *gray* Λ-entries: a gray whose addition alone overloads the pool can
//!    never execute here, so the resource leaves its candidate set — the
//!    assignment side of the OPL `alternative`, with energy reasoning.
//! 2. **Edge-finding detection**: sweep distinct lct levels `L` descending,
//!    Θ = assigned tasks with `lct ≤ L`, Λ = assigned tasks with
//!    `lct > L` plus surviving candidates. While `Env(Θ ∪ {g}) > C·L` for
//!    some gray `g`, every schedule has `g` ending after `L` (the Θ-tasks'
//!    energy is mandatory in `[est, L]`), which yields a start bound for
//!    `g` on this pool:
//!    * the interval rule `s_g ≥ L + 1 − dur_g`, and
//!    * the energy rule: for an est-cut `a` of Θ, if the computed
//!      `ceil((C·a + e_Θ(a) − (C − c_g)·L) / c_g)` exceeds `a`, then `g`
//!      cannot start left of the cut and the value bounds `s_g` (an O(n)
//!      reverse scan, `update_bound`).
//!
//!    Assigned grays get the bound as a pending `lb` update; candidate
//!    grays whose bound exceeds their start `ub` lose the resource.
//!
//! **When a pass can act (the dominance certificate).** Every conflict, drop
//! and lift above comes from a *window* `[a, L)` and the tasks lying entirely
//! inside it (`est ≥ a`, `lct ≤ L`): the overload check needs their energy to
//! exceed `C·(L − a)`, the energy rule for a detected `g` needs it to exceed
//! `(C − c_g)·(L − a)`, and the interval rule needs `g` itself to fit inside
//! (`est_g + dur_g ≤ L`), which leaves the others again more than
//! `(C − c_g)·(L − a)`. So a pass acts only through a window more than
//! `(C − c_max)/C` full. Call an assigned task *fixed* when
//! `est + dur == lct`. Two cases:
//!
//! * *The window contains an unfixed task.* Then it is at least
//!   `ℓ_min = min (lct − est)` over the unfixed tasks long, and binds only
//!   if the contained energy exceeds `(C − c_max)·ℓ_min`. With `E` the total
//!   energy of the pool, `E ≤ (C − c_max)·ℓ_min` rules every such window out.
//! * *Every task in the window is fixed.* Then the rule's premises speak of
//!   fixed tasks and `g` only. The pool's timetable ([`super::cumulative`])
//!   drains before this propagator (tier 1 before tier 2), so the fixed
//!   tasks overlap nowhere beyond `C`, and an assigned `g` started at its
//!   `est` (mirrored: ended at its `lct`) fits beside them at every instant.
//!   A placement that is feasible pointwise is feasible by area, so that
//!   placement satisfies every bound the rule can derive: the bound is at
//!   most `est_g`. This case needs `g` assigned — the timetable drops a
//!   candidate only when it fits *nowhere*, which is weaker than what pass 1
//!   does with a gray.
//!
//! Hence, in one O(n) loop over the items `collect` gathered and before any
//! sort or tree work: **if every item is assigned and either none is unfixed or
//! `C > c_max ∧ E ≤ (C − c_max)·ℓ_min`, the pass and its mirror are no-ops**
//! (energies, spans, fixedness and assignment are mirror-invariant). The run
//! is still a counted, barren run for the engine's yield ledger. Nothing but
//! `C` and the items' `req`, `est`, `lct`, `dur`, `assigned` enters the test.
//!
//! Measured on the `e2e` `flash_backlog` workload (the first 240 000 passes
//! of a seed-1 run: 54.7 items each, 60 % fixed — the paper's Table 2 fixes
//! every started task and re-solves the rest): 61 % of passes certify and,
//! run the long way too, not one of them produces a pending update.
//! Dropping from `E` the unfixed tasks too loose to lie inside any binding
//! window, to a fixpoint, certifies a further 11 %; it is not done (each
//! round is another O(n) loop, and a loose *detected* task needs a longer
//! argument). The uncertified 39 % are rounds whose backlog is late: 48
//! items, 21 of them unfixed, 13 of those squeezed by a deadline into a
//! window shorter than `E/(C − c_max)`. Those passes are not idle — 31 items
//! are detected per pass, half of them trivially (`est_g ≥ L`) — but no
//! detection moves a bound either.
//!
//! **Cost of an uncertified pass.** A scan per detection would make the pass
//! O(n²), so detection is gated in O(1): Θ excludes `g`, hence
//! `C·a + e_Θ(a) ≤ Env(Θ)` for every cut and every energy-rule candidate is
//! at most `U = ceil((Env(Θ) − (C − c_g)·L) / c_g)`; if
//! `max(U, L + 1 − dur_g) ≤ est_g` the bound cannot exceed `est_g`, which
//! changes neither an assigned start nor a candidate set (dropping needs a
//! bound above `lct − dur ≥ est`), and the scan is skipped — on that
//! workload, always. What remains is O(n log n) in fact: pass 2 starts from
//! the tree pass 1 leaves behind, the mirrored pass derives its two orders
//! from the forward ones when the forward pass changed no domain, and a tree
//! with no gray leaf (the manager's §V.D single-pool model, where every task
//! is assigned) combines two fields per node instead of six. Debug builds
//! cross-check the certificate and all three shortcuts against the long way
//! round.
//!
//! All buffers live on the propagator and are reused across invocations
//! (see `tests/alloc_count.rs`).

use super::theta::{ThetaTree, NEG};
use super::{Ctx, PropClass, Propagator};
use crate::model::{Model, ResRef, SlotKind, TaskRef};
use crate::state::Conflict;

#[derive(Debug, Clone, Copy)]
struct Item {
    est: i64,
    lct: i64,
    dur: i64,
    req: i64,
    energy: i64,
    assigned: bool,
    task: TaskRef,
}

/// Edge-finding for one `(resource, kind)` slot pool.
#[derive(Debug)]
pub struct EdgeFinding {
    res: ResRef,
    kind: SlotKind,
    /// Tasks of this kind that may ever use this resource.
    tasks: Vec<TaskRef>,
    /// Scratch: the active tasks this call (assigned or candidate).
    items: Vec<Item>,
    /// Scratch: item indices sorted by est — the Θ-tree leaf order.
    order_est: Vec<u32>,
    /// Scratch: item indices sorted by lct — the sweep order.
    order_lct: Vec<u32>,
    /// Scratch: item index → leaf position (est rank).
    pos: Vec<u32>,
    tree: ThetaTree,
    /// Debug cross-check scratch (see `check_carried_tree`).
    #[cfg(debug_assertions)]
    check_tree: ThetaTree,
    /// `update_bound` scans performed (complexity pin, tests only).
    #[cfg(test)]
    scans: u64,
    /// Passes the dominance certificate answered (tests only).
    #[cfg(test)]
    certified: u64,
    /// Scratch: pending start lower bound per item (`NEG` = none).
    new_lb: Vec<i64>,
    /// Scratch: candidate items that must lose this resource.
    drop_res: Vec<bool>,
    /// Change-detection cache: the narrowing stamp of each pool task as of
    /// the last full run (parallel to `tasks`).
    last_stamp: Vec<u64>,
    /// Trail generation of the last full run (stamps survive backtracking,
    /// so a generation change alone must force a re-run).
    last_gen: u64,
    /// False until the first full run.
    valid: bool,
}

impl EdgeFinding {
    /// Propagator for the `kind` pool of `res`; `None` if no task can use it.
    pub fn new(model: &Model, res: ResRef, kind: SlotKind) -> Option<Self> {
        let bit = 1u128 << res.idx();
        let tasks: Vec<TaskRef> = (0..model.n_tasks())
            .map(|i| TaskRef(i as u32))
            .filter(|&t| model.tasks[t.idx()].kind == kind && model.candidate_mask(t) & bit != 0)
            .collect();
        if tasks.is_empty() {
            return None;
        }
        let n = tasks.len();
        Some(EdgeFinding {
            res,
            kind,
            tasks,
            items: Vec::new(),
            order_est: Vec::new(),
            order_lct: Vec::new(),
            pos: Vec::new(),
            tree: ThetaTree::default(),
            #[cfg(debug_assertions)]
            check_tree: ThetaTree::default(),
            #[cfg(test)]
            scans: 0,
            #[cfg(test)]
            certified: 0,
            new_lb: Vec::new(),
            drop_res: Vec::new(),
            last_stamp: vec![0; n],
            last_gen: 0,
            valid: false,
        })
    }

    /// True when some pool member narrowed since the last run on this
    /// search path. Pool membership only shrinks within a trail generation
    /// (masks only narrow) and every narrowing advances the owner's stamp,
    /// so unchanged member stamps under an unchanged generation mean the
    /// pool's inputs are bit-identical to the previous (already applied)
    /// run. Refreshes the member stamps as it scans.
    fn dirty_since_last_run(&mut self, ctx: &Ctx<'_>) -> bool {
        let gen = ctx.dom.generation();
        let mut changed = !self.valid || gen != self.last_gen;
        for (i, &t) in self.tasks.iter().enumerate() {
            if !ctx.dom.has_res(t, self.res) {
                continue;
            }
            let s = ctx.dom.task_stamp(t);
            if s != self.last_stamp[i] {
                self.last_stamp[i] = s;
                changed = true;
            }
        }
        self.last_gen = gen;
        self.valid = true;
        changed
    }

    /// Gather the pool's active tasks; `mirror` time-reverses the instance
    /// (`est' = −lct`, `lct' = −est`) so the forward pass filters ubs.
    fn collect(&mut self, ctx: &Ctx<'_>, mirror: bool) {
        self.items.clear();
        for &t in &self.tasks {
            if !ctx.dom.has_res(t, self.res) {
                continue;
            }
            let spec = &ctx.model.tasks[t.idx()];
            let (lb, ub) = (ctx.dom.lb(t), ctx.dom.ub(t));
            let (est, lct) = if mirror {
                (-(ub + spec.dur), -lb)
            } else {
                (lb, ub + spec.dur)
            };
            self.items.push(Item {
                est,
                lct,
                dur: spec.dur,
                req: spec.req as i64,
                energy: spec.dur * spec.req as i64,
                assigned: ctx.dom.assigned(t) == Some(self.res),
                task: t,
            });
        }
    }

    /// Dominance certificate over the collected `items` (see the module doc):
    /// true when neither this pass nor its mirror can conflict, drop or
    /// lift. Every input — energies, requirements, spans, fixedness,
    /// assignment — is mirror-invariant, so one verdict covers both.
    fn certified_no_op(&self, cap: i64) -> bool {
        let (mut energy, mut c_max, mut l_min) = (0i64, 0i64, i64::MAX);
        for it in &self.items {
            if !it.assigned {
                return false;
            }
            energy += it.energy;
            c_max = c_max.max(it.req);
            if it.est + it.dur < it.lct {
                l_min = l_min.min(it.lct - it.est);
            }
        }
        l_min == i64::MAX || (cap > c_max && energy <= (cap - c_max) * l_min)
    }

    /// Debug cross-check of a certified pass: both passes the long way find
    /// no conflict, no drop and no bound above an `est`. The lemma's
    /// all-fixed case leans on this pool's timetable having drained first.
    /// That filter's known false prune (the ignored test
    /// `own_part_merged_with_a_neighbour_is_not_a_conflict` in
    /// `cumulative.rs`) only over-blocks, which makes the premise stronger;
    /// a fix that under-blocked would trip these asserts, so this is the
    /// check to re-run when that filter changes.
    #[cfg(debug_assertions)]
    fn check_certified(&mut self, ctx: &Ctx<'_>, cap: i64) {
        for mirror in [false, true] {
            self.collect(ctx, mirror);
            self.sort_orders();
            let pass = self.run_pass(cap);
            debug_assert!(pass.is_ok(), "certified pass conflicts (mirror={mirror})");
            debug_assert!(!self.drop_res.contains(&true), "certified pass drops");
            debug_assert!(
                self.items
                    .iter()
                    .zip(&self.new_lb)
                    .all(|(it, &v)| v <= it.est),
                "certified pass lifts a bound (mirror={mirror})"
            );
        }
    }

    /// Sort both orders by `(key, index)` — a total order, so the result is
    /// unique.
    fn sort_orders(&mut self) {
        let items = &self.items;
        let n = items.len() as u32;
        self.order_est.clear();
        self.order_est.extend(0..n);
        self.order_est
            .sort_unstable_by_key(|&i| (items[i as usize].est, i));
        self.order_lct.clear();
        self.order_lct.extend(0..n);
        self.order_lct
            .sort_unstable_by_key(|&i| (items[i as usize].lct, i));
    }

    /// Orders of the mirrored `items` when the forward `apply` changed no
    /// domain: item by item `est' = −lct` and `lct' = −est`, so each order
    /// is the other forward order reversed, with every equal-key run put
    /// back in ascending index order.
    fn mirror_orders(&mut self) {
        std::mem::swap(&mut self.order_est, &mut self.order_lct);
        let items = &self.items;
        reverse_keeping_ties(&mut self.order_est, |i| items[i as usize].est);
        reverse_keeping_ties(&mut self.order_lct, |i| items[i as usize].lct);
    }

    /// Both sweeps over the current `items` in the current orders, writing
    /// pending updates into `new_lb` / `drop_res`.
    fn run_pass(&mut self, cap: i64) -> Result<(), Conflict> {
        let n = self.items.len();
        self.new_lb.clear();
        self.new_lb.resize(n, NEG);
        self.drop_res.clear();
        self.drop_res.resize(n, false);
        if n == 0 {
            return Ok(());
        }
        self.pos.clear();
        self.pos.resize(n, 0);
        for (p, &i) in self.order_est.iter().enumerate() {
            self.pos[i as usize] = p as u32;
        }

        // Pass 1: overload check, ascending lct; candidates gray.
        self.tree.reset(n);
        for k in 0..n {
            let i = self.order_lct[k] as usize;
            let it = self.items[i];
            let p = self.pos[i] as usize;
            if it.assigned {
                self.tree.set_theta(p, it.est, it.energy, cap);
            } else {
                self.tree.set_lambda(p, it.est, it.energy, cap);
            }
            let lim = cap * it.lct;
            if self.tree.env() > lim {
                return Err(Conflict);
            }
            // Every gray in the tree has lct ≤ it.lct (sweep order), so a
            // gray pushing the envelope past the limit can never run here.
            loop {
                let (env_l, resp) = self.tree.env_lambda();
                if env_l <= lim {
                    break;
                }
                let Some(p_g) = resp else { break };
                let g = self.order_est[p_g] as usize;
                debug_assert!(!self.items[g].assigned);
                self.drop_res[g] = true;
                self.tree.remove(p_g);
            }
        }

        // Pass 2: edge-finding detection, descending lct levels. Pass 1 left
        // every assigned item white, every surviving candidate gray and
        // every dropped candidate removed: exactly this pass's initial tree.
        #[cfg(debug_assertions)]
        self.check_carried_tree(cap);
        let mut k = n;
        while k > 0 {
            // Demote the top lct group from Θ to Λ; the next distinct lct
            // below becomes the detection level.
            let l_top = self.items[self.order_lct[k - 1] as usize].lct;
            while k > 0 && self.items[self.order_lct[k - 1] as usize].lct == l_top {
                let i = self.order_lct[k - 1] as usize;
                let it = self.items[i];
                if it.assigned {
                    self.tree
                        .set_lambda(self.pos[i] as usize, it.est, it.energy, cap);
                }
                k -= 1;
            }
            if k == 0 {
                break;
            }
            let level = self.items[self.order_lct[k - 1] as usize].lct;
            let lim = cap * level;
            loop {
                let (env_l, resp) = self.tree.env_lambda();
                if env_l <= lim {
                    break;
                }
                let Some(p_g) = resp else { break };
                let g = self.order_est[p_g] as usize;
                let it = self.items[g];
                // O(1) gate: Θ excludes `g`, so every energy-rule candidate
                // of `update_bound` is at most `ceil(num / req)`, which is
                // ≤ est iff `num ≤ req·est`. A bound ≤ est changes neither
                // an assigned start (`set_lb`/`set_ub` no-op) nor a
                // candidate (dropping needs v > lct − dur ≥ est).
                let num = self.tree.env() - (cap - it.req) * level;
                if num <= it.req * it.est && level + 1 - it.dur <= it.est {
                    debug_assert!(self.update_bound(g, level, cap) <= it.est);
                } else {
                    #[cfg(test)]
                    {
                        self.scans += 1;
                    }
                    let v = self.update_bound(g, level, cap);
                    if it.assigned {
                        if v > self.new_lb[g] {
                            self.new_lb[g] = v;
                        }
                    } else if v > it.lct - it.dur {
                        // A candidate whose implied start exceeds its start
                        // ub cannot execute on this resource.
                        self.drop_res[g] = true;
                    }
                }
                self.tree.remove(p_g);
            }
        }
        Ok(())
    }

    /// Start bound for detected gray `g` at detection level `level`:
    /// max of the interval rule and the energy rule over all valid Θ-cuts.
    fn update_bound(&self, g: usize, level: i64, cap: i64) -> i64 {
        let it = &self.items[g];
        let mut v = level + 1 - it.dur;
        let rest = cap - it.req;
        let mut e = 0i64;
        // Reverse est order: `e` accumulates the energy of Θ-tasks with
        // est ≥ a as the cut `a` walks left. Evaluating at every item is
        // sound (a partial equal-est group under-counts `e`, weakening but
        // never invalidating the bound; the last item of the group sees the
        // full sum).
        for idx in (0..self.order_est.len()).rev() {
            let i = self.order_est[idx] as usize;
            if i == g {
                continue;
            }
            let o = &self.items[i];
            if !o.assigned || o.lct > level {
                continue;
            }
            e += o.energy;
            let a = o.est;
            let num = cap * a + e - rest * level;
            if it.req > 0 && num > 0 {
                let cand = num.div_euclid(it.req) + (num.rem_euclid(it.req) > 0) as i64;
                // `ceil(x) > a ⟺ x > a` for integer `a`: only then is the
                // cut binding (g cannot lie entirely left of it).
                if cand > a && cand > v {
                    v = cand;
                }
            }
        }
        v
    }

    /// Apply the pending updates computed by [`run_pass`](Self::run_pass);
    /// returns whether any domain changed.
    fn apply(&mut self, ctx: &mut Ctx<'_>, mirror: bool) -> Result<bool, Conflict> {
        let mut changed = false;
        for i in 0..self.items.len() {
            let it = self.items[i];
            if self.drop_res[i] {
                changed |= ctx.dom.remove_res(it.task, self.res)?;
            } else if it.assigned && self.new_lb[i] > NEG {
                changed |= if mirror {
                    // s' ≥ v in reversed time ⟺ s ≤ −v − dur.
                    ctx.dom.set_ub(it.task, -self.new_lb[i] - it.dur)?
                } else {
                    ctx.dom.set_lb(it.task, self.new_lb[i])?
                };
            }
        }
        Ok(changed)
    }

    /// Debug cross-check: the tree carried over from pass 1 has the root a
    /// from-scratch pass-2 fill produces.
    #[cfg(debug_assertions)]
    fn check_carried_tree(&mut self, cap: i64) {
        self.check_tree.reset(self.items.len());
        for (i, it) in self.items.iter().enumerate() {
            let p = self.pos[i] as usize;
            if it.assigned {
                self.check_tree.set_theta(p, it.est, it.energy, cap);
            } else if !self.drop_res[i] {
                self.check_tree.set_lambda(p, it.est, it.energy, cap);
            }
        }
        debug_assert_eq!(self.tree.env(), self.check_tree.env());
        debug_assert_eq!(self.tree.env_lambda(), self.check_tree.env_lambda());
    }
}

/// Reverse `order`, then put every run of equal `key` back in its original
/// (ascending-index) order.
fn reverse_keeping_ties(order: &mut [u32], key: impl Fn(u32) -> i64) {
    order.reverse();
    for run in order.chunk_by_mut(|&a, &b| key(a) == key(b)) {
        run.reverse();
    }
    debug_assert!(
        order
            .windows(2)
            .all(|w| (key(w[0]), w[0]) < (key(w[1]), w[1])),
        "derived mirrored order differs from the sorted one"
    );
}

impl Propagator for EdgeFinding {
    fn propagate(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Conflict> {
        // Skip-gate: the engine re-enqueues this propagator whenever ANY
        // watched task narrows, which for unassigned tasks means every
        // candidate pool — O(resources) enqueues per decision. Most of
        // those see a pool whose members are untouched (the narrowed task
        // left the pool, or belongs to another pool); an O(n) stamp scan
        // detects that and avoids the O(n log n) passes.
        if !self.dirty_since_last_run(ctx) {
            return Ok(());
        }
        let cap = ctx.model.resources[self.res.idx()].cap(self.kind) as i64;
        // Forward pass filters lbs; the mirrored pass re-reads the (possibly
        // tightened) domains and filters ubs. On conflict, invalidate the
        // stamp cache so a retry in an identical state re-detects it.
        let result = (|| {
            self.collect(ctx, false);
            // Inert pool: with no assigned member Θ stays empty in both
            // passes, so detection cannot fire, and the only remaining
            // filter — dropping a gray that alone overloads its own window
            // — needs req > cap. (Mirroring preserves membership, windows
            // and assignment flags, so one check covers both passes.)
            if self.items.iter().all(|it| !it.assigned && it.req <= cap) {
                return Ok(());
            }
            if self.certified_no_op(cap) {
                #[cfg(test)]
                {
                    self.certified += 1;
                }
                #[cfg(debug_assertions)]
                self.check_certified(ctx, cap);
                return Ok(());
            }
            self.sort_orders();
            self.run_pass(cap)?;
            let changed = self.apply(ctx, false)?;
            self.collect(ctx, true);
            if changed {
                self.sort_orders();
            } else {
                self.mirror_orders();
            }
            self.run_pass(cap)?;
            self.apply(ctx, true).map(|_| ())
        })();
        if result.is_err() {
            self.valid = false;
        }
        result
    }

    fn watched_tasks(&self, _model: &Model) -> Vec<TaskRef> {
        self.tasks.clone()
    }

    fn class(&self) -> PropClass {
        PropClass::EdgeFinding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};
    use crate::state::Domains;

    fn ef_ctx<'a>(m: &'a Model, d: &'a mut Domains) -> (EdgeFinding, Ctx<'a>) {
        let ef = EdgeFinding::new(m, ResRef(0), SlotKind::Map).unwrap();
        let ctx = Ctx {
            model: m,
            dom: d,
            bound: u32::MAX,
        };
        (ef, ctx)
    }

    /// Three 2-long tasks confined to [0,5) on a 1-capacity pool: no
    /// mandatory parts (timetable-blind), but 6 energy > 5 area.
    #[test]
    fn detects_energy_overload_without_mandatory_parts() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0);
        let j = b.add_job(0, 1000);
        let ts: Vec<_> = (0..3).map(|_| b.add_task(j, SlotKind::Map, 2, 1)).collect();
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        for &t in &ts {
            d.set_ub(t, 3).unwrap(); // lct = 5
        }
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        assert!(ef.propagate(&mut ctx).is_err());
    }

    /// Classic detection: Ω = {[0,5) dur 3, [1,5) dur 2} saturates [0,5);
    /// a third task (dur 4) must end after 5, and the energy rule pushes
    /// its est all the way to 5 (disjunctive case). The mirrored pass then
    /// pins the first task's ub to 0.
    #[test]
    fn edge_finding_lifts_est_past_the_omega_block() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0);
        let j = b.add_job(0, 1000);
        let a = b.add_task(j, SlotKind::Map, 3, 1);
        let bt = b.add_task(j, SlotKind::Map, 2, 1);
        let i = b.add_task(j, SlotKind::Map, 4, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.set_ub(a, 2).unwrap(); // a ∈ [0,2], lct 5
        d.set_lb(bt, 1).unwrap();
        d.set_ub(bt, 3).unwrap(); // bt ∈ [1,3], lct 5
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        ef.propagate(&mut ctx).unwrap();
        assert!(ef.scans > 0, "a binding detection falls through the gate");
        assert_eq!(d.lb(i), 5, "i is pushed past the saturated window");
        assert_eq!(d.ub(a), 0, "mirror pass: a must lead the block");
    }

    /// A candidate task whose energy cannot fit the pool's leftover window
    /// loses the resource (alternative-side filtering), while a second
    /// resource keeps it schedulable.
    #[test]
    fn overloaded_candidate_loses_the_resource() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0);
        b.add_resource(1, 0);
        let j = b.add_job(0, 1000);
        let blocker = b.add_task(j, SlotKind::Map, 4, 1);
        let c = b.add_task(j, SlotKind::Map, 3, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.assign_res(blocker, ResRef(0)).unwrap();
        d.set_ub(blocker, 1).unwrap(); // blocker ∈ [0,1], lct 5
        d.set_ub(c, 2).unwrap(); // c ∈ [0,2], lct 5: 4+3 energy > 5 area
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        ef.propagate(&mut ctx).unwrap();
        assert_eq!(d.assigned(c), Some(ResRef(1)));
    }

    /// Capacity-2 pool: Θ = two dur-4 req-1 tasks in [0,5); g (dur 4,
    /// req 1) is detected at level 5 (Env = 12 > 2·5) and the energy rule's
    /// cut at a = 0 yields s_g ≥ ceil((2·0 + 8 − 1·5)/1) = 3, beating the
    /// interval rule's 5 + 1 − 4 = 2.
    #[test]
    fn cumulative_detection_respects_capacity() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 0);
        let j = b.add_job(0, 1000);
        let t1 = b.add_task(j, SlotKind::Map, 4, 1);
        let t2 = b.add_task(j, SlotKind::Map, 4, 1);
        let g = b.add_task(j, SlotKind::Map, 4, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.set_ub(t1, 1).unwrap(); // lct 5
        d.set_ub(t2, 1).unwrap(); // lct 5
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        ef.propagate(&mut ctx).unwrap();
        assert!(ef.scans > 0, "a binding detection falls through the gate");
        assert_eq!(d.lb(g), 3);
    }

    /// `pins` back-to-back dur-3 req-1 started tasks on a `cap`-wide pool
    /// (the fixed backlog of a manager round) plus one unstarted task per
    /// `free` entry `(dur, req, latest start)`.
    fn backlog(cap: u32, pins: i64, free: &[(i64, u32, i64)]) -> (Model, Domains, Vec<TaskRef>) {
        let mut b = ModelBuilder::new();
        b.add_resource(cap, 0);
        let j = b.add_job(0, 1000);
        for k in 0..pins {
            let t = b.add_task(j, SlotKind::Map, 3, 1);
            b.fix_task(t, ResRef(0), 3 * k);
        }
        let ts: Vec<_> = free
            .iter()
            .map(|&(dur, req, _)| b.add_task(j, SlotKind::Map, dur, req))
            .collect();
        b.set_horizon(200);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        for (&t, &(_, _, latest)) in ts.iter().zip(free) {
            d.set_ub(t, latest).unwrap();
        }
        (m, d, ts)
    }

    /// The certificate's verdict on the forward and on the mirrored items.
    fn verdicts(ef: &mut EdgeFinding, ctx: &Ctx<'_>) -> (bool, bool) {
        let cap = ctx.model.resources[0].cap(SlotKind::Map) as i64;
        ef.collect(ctx, false);
        let forward = ef.certified_no_op(cap);
        ef.collect(ctx, true);
        (forward, ef.certified_no_op(cap))
    }

    /// Complexity pin, by count: 32 back-to-back pinned tasks on a
    /// capacity-2 pool plus one task whose window (93 long) is shorter than
    /// the pool's energy (99), so the pass is not certified and both sweeps
    /// run. Every pinned task is detected once per pass when its level drops
    /// below its est (it alone overflows `C·L`), the windowed one once in
    /// the mirrored pass, and every one of those detections is a no-op the
    /// O(1) gate answers: the O(n) scan never runs (ungated it runs 63
    /// times here).
    #[test]
    fn trivial_detections_never_scan() {
        let (m, mut d, ts) = backlog(2, 32, &[(3, 1, 90)]);
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        ef.propagate(&mut ctx).unwrap();
        assert_eq!(
            ef.certified, 0,
            "the sweeps must run for the pin to mean anything"
        );
        assert!(!ef.order_lct.is_empty());
        assert_eq!(ef.scans, 0);
        assert_eq!((d.lb(ts[0]), d.ub(ts[0])), (0, 90));
    }

    /// An all-fixed pool is the timetable's business alone: certified with
    /// no sort and no tree (debug builds then run the long way as a check,
    /// which is the only thing that fills the orders).
    #[test]
    fn all_fixed_pool_is_certified() {
        let (m, mut d, _) = backlog(2, 32, &[]);
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        assert_eq!(verdicts(&mut ef, &ctx), (true, true));
        ef.propagate(&mut ctx).unwrap();
        assert_eq!((ef.certified, ef.scans), (1, 0));
        assert!(cfg!(debug_assertions) || ef.order_est.is_empty());
        // Fixedness beats the capacity clause: a full-width pinned task.
        let (m, mut d, _) = backlog(1, 4, &[]);
        let (mut ef, ctx) = ef_ctx(&m, &mut d);
        assert_eq!(verdicts(&mut ef, &ctx), (true, true));
    }

    /// The shape of a manager round: a pinned backlog beside unstarted tasks
    /// whose windows run to the horizon. Energy 96 + 3·8 = 120 fits
    /// `(C − c_max)·ℓ_min = (4 − 2)·60` exactly — certified — and one tick
    /// less window is not.
    #[test]
    fn pinned_backlog_with_loose_tasks_is_certified_up_to_the_volume_bound() {
        let loose = [(4, 2, 200), (4, 2, 120), (4, 2, 56)];
        let (m, mut d, ts) = backlog(4, 32, &loose);
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        assert_eq!(verdicts(&mut ef, &ctx), (true, true));
        ef.propagate(&mut ctx).unwrap();
        assert_eq!((ef.certified, ef.scans), (1, 0));
        assert!(cfg!(debug_assertions) || ef.order_est.is_empty());
        assert_eq!((d.lb(ts[2]), d.ub(ts[2])), (0, 56));

        let (m, mut d, _) = backlog(4, 32, &[(4, 2, 200), (4, 2, 120), (4, 2, 55)]);
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        assert_eq!(verdicts(&mut ef, &ctx), (false, false));
        ef.propagate(&mut ctx).unwrap();
        assert_eq!(ef.certified, 0);
        assert!(!ef.order_est.is_empty(), "uncertified: the sweeps ran");
    }

    /// `C == c_max` leaves no room beside the widest task, so no window
    /// length rules a lift out: an unfixed item keeps the pass uncertified
    /// however loose it is. So does a candidate that is not yet assigned —
    /// dropping it is pass 1's job and the lemma says nothing about it.
    #[test]
    fn full_width_or_unassigned_items_are_never_certified() {
        let (m, mut d, _) = backlog(2, 4, &[(1, 2, 200)]);
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        assert_eq!(verdicts(&mut ef, &ctx), (false, false));
        ef.propagate(&mut ctx).unwrap();
        assert_eq!(ef.certified, 0);

        let mut b = ModelBuilder::new();
        b.add_resource(4, 0);
        b.add_resource(4, 0);
        let j = b.add_job(0, 1000);
        let pin = b.add_task(j, SlotKind::Map, 3, 1);
        b.fix_task(pin, ResRef(0), 0);
        b.add_task(j, SlotKind::Map, 1, 1);
        b.set_horizon(200);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        assert_eq!(verdicts(&mut ef, &ctx), (false, false));
        ef.propagate(&mut ctx).unwrap();
        assert_eq!(ef.certified, 0);
    }

    /// No assigned tasks and roomy windows: nothing to prune, no conflict.
    #[test]
    fn quiescent_pool_is_untouched() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 0);
        b.add_resource(2, 0);
        let j = b.add_job(0, 1000);
        let t = b.add_task(j, SlotKind::Map, 5, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        let (mut ef, mut ctx) = ef_ctx(&m, &mut d);
        ef.propagate(&mut ctx).unwrap();
        assert_eq!(d.lb(t), 0);
        assert_eq!(d.ub(t), 100);
        assert!(d.assigned(t).is_none());
    }
}
