//! Θ-Λ tree for Vilím-style cumulative edge-finding.
//!
//! A complete binary tree over tasks sorted by earliest start time (est).
//! Each leaf holds one task's energy `e = req · dur` and envelope seed
//! `C · est + e`; internal nodes combine
//!
//! ```text
//! e(v)   = e(left) + e(right)
//! Env(v) = max(Env(right), Env(left) + e(right))
//! ```
//!
//! so `Env(root) = max over est-cuts a of (C · a + energy of Θ-tasks with
//! est ≥ a)` — the classic energy envelope. Overload check: inserting tasks
//! in ascending-`lct` order, the pool is infeasible iff `Env(root) > C · lct`
//! at some step (Vilím 2009, adapted to cumulative energy reasoning).
//!
//! The Λ ("lambda", or *gray*) extension tracks, per node, the best envelope
//! obtainable by adding **at most one** gray task, plus which gray task is
//! responsible — this powers edge-finding detection for candidate tasks
//! without re-running the sweep per task.
//!
//! All storage is reused across calls ([`ThetaTree::reset`] only grows
//! buffers), satisfying the solver's no-per-node-allocation budget.

/// Sentinel for "minus infinity" that survives additions without overflow.
pub const NEG: i64 = i64::MIN / 4;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Sum of energies of Θ-tasks below this node.
    e: i64,
    /// Energy envelope of Θ-tasks below this node.
    env: i64,
    /// Max energy sum using Θ-tasks plus at most one Λ-task.
    e_l: i64,
    /// Max envelope using Θ-tasks plus at most one Λ-task.
    env_l: i64,
    /// Leaf position of the Λ-task responsible for `e_l` (`u32::MAX` none).
    resp_e: u32,
    /// Leaf position of the Λ-task responsible for `env_l` (`u32::MAX` none).
    resp_env: u32,
}

impl Node {
    /// A node with no Λ-task below it.
    const fn white(e: i64, env: i64) -> Node {
        Node {
            e,
            env,
            e_l: e,
            env_l: env,
            resp_e: u32::MAX,
            resp_env: u32::MAX,
        }
    }
}

const EMPTY: Node = Node::white(0, NEG);

/// Reusable Θ-Λ tree. Leaf positions are caller-chosen indices in
/// `[0, n)`; the caller must order them by nondecreasing est for the
/// envelope semantics to hold.
#[derive(Debug, Default)]
pub struct ThetaTree {
    /// Nodes in heap layout: root at 1, leaves at `[m, m + n)`.
    nodes: Vec<Node>,
    /// First leaf index (power of two ≥ n, or 1 when n ≤ 1).
    m: usize,
    n: usize,
    /// Number of Λ leaves. While it is zero every node has `e_l = e`,
    /// `env_l = env` and nobody responsible, so the walk to the root
    /// combines two fields instead of six.
    grays: usize,
}

impl ThetaTree {
    /// Fresh empty tree over `n` leaf positions. Reuses prior capacity.
    pub fn reset(&mut self, n: usize) {
        let m = n.next_power_of_two().max(1);
        self.m = m;
        self.n = n;
        self.grays = 0;
        self.nodes.clear();
        self.nodes.resize(2 * m, EMPTY);
    }

    /// Store `leaf` at `pos` and recompute its ancestors.
    #[inline]
    fn put(&mut self, pos: usize, leaf: Node) {
        debug_assert!(pos < self.n);
        let mut i = self.m + pos;
        self.grays -= (self.nodes[i].resp_e != u32::MAX) as usize;
        self.grays += (leaf.resp_e != u32::MAX) as usize;
        self.nodes[i] = leaf;
        let white_only = self.grays == 0;
        i /= 2;
        while i >= 1 {
            let l = self.nodes[2 * i];
            let r = self.nodes[2 * i + 1];
            let e = l.e + r.e;
            let env = r.env.max(l.env.saturating_add(r.e));
            self.nodes[i] = if white_only {
                Node::white(e, env)
            } else {
                // e_l: best single-gray energy sum.
                let (e_l, resp_e) = if l.e_l + r.e >= l.e + r.e_l {
                    (l.e_l + r.e, l.resp_e)
                } else {
                    (l.e + r.e_l, r.resp_e)
                };
                // env_l: best single-gray envelope among the three shapes.
                let c1 = r.env_l;
                let c2 = l.env.saturating_add(r.e_l);
                let c3 = l.env_l.saturating_add(r.e);
                let (env_l, resp_env) = if c1 >= c2 && c1 >= c3 {
                    (c1, r.resp_env)
                } else if c2 >= c3 {
                    (c2, r.resp_e)
                } else {
                    (c3, l.resp_env)
                };
                Node {
                    e,
                    env,
                    e_l,
                    env_l,
                    resp_e,
                    resp_env,
                }
            };
            i /= 2;
        }
    }

    /// Put the task at leaf `pos` into Θ (white).
    pub fn set_theta(&mut self, pos: usize, est: i64, energy: i64, cap: i64) {
        self.put(pos, Node::white(energy, cap * est + energy));
    }

    /// Put the task at leaf `pos` into Λ (gray: optional, at most one used).
    pub fn set_lambda(&mut self, pos: usize, est: i64, energy: i64, cap: i64) {
        let leaf = Node {
            e: 0,
            env: NEG,
            e_l: energy,
            env_l: cap * est + energy,
            resp_e: pos as u32,
            resp_env: pos as u32,
        };
        self.put(pos, leaf);
    }

    /// Remove the task at leaf `pos` entirely.
    pub fn remove(&mut self, pos: usize) {
        self.put(pos, EMPTY);
    }

    /// Energy envelope of the Θ-set.
    #[inline]
    pub fn env(&self) -> i64 {
        self.nodes[1].env
    }

    /// Total energy of the Θ-set.
    #[inline]
    pub fn energy(&self) -> i64 {
        self.nodes[1].e
    }

    /// Best envelope adding at most one Λ-task, and the responsible leaf.
    #[inline]
    pub fn env_lambda(&self) -> (i64, Option<usize>) {
        let root = self.nodes[1];
        let resp = if root.resp_env == u32::MAX {
            None
        } else {
            Some(root.resp_env as usize)
        };
        (root.env_l, resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force envelope: max over cuts a ∈ ests of C·a + Σ energy of
    /// tasks with est ≥ a.
    fn brute_env(tasks: &[(i64, i64)], cap: i64) -> i64 {
        let mut best = NEG;
        for &(a, _) in tasks {
            let e: i64 = tasks
                .iter()
                .filter(|&&(est, _)| est >= a)
                .map(|&(_, en)| en)
                .sum();
            best = best.max(cap * a + e);
        }
        best
    }

    #[test]
    fn envelope_matches_brute_force() {
        let cap = 3;
        // (est, energy) sorted by est — leaf order is est order.
        let tasks = [(0, 6), (2, 3), (2, 9), (5, 4), (9, 1)];
        let mut tt = ThetaTree::default();
        tt.reset(tasks.len());
        for (i, &(est, en)) in tasks.iter().enumerate() {
            tt.set_theta(i, est, en, cap);
        }
        assert_eq!(tt.env(), brute_env(&tasks, cap));
        assert_eq!(tt.energy(), 23);
        // Removing a task keeps it consistent.
        tt.remove(2);
        let rest = [(0, 6), (2, 3), (5, 4), (9, 1)];
        assert_eq!(tt.env(), brute_env(&rest, cap));
    }

    #[test]
    fn empty_tree_has_neg_env() {
        let mut tt = ThetaTree::default();
        tt.reset(4);
        assert_eq!(tt.env(), NEG);
        assert_eq!(tt.energy(), 0);
        assert_eq!(tt.env_lambda(), (NEG, None));
    }

    #[test]
    fn lambda_picks_best_single_gray() {
        let cap = 2;
        let mut tt = ThetaTree::default();
        tt.reset(4);
        tt.set_theta(0, 0, 4, cap);
        tt.set_theta(2, 3, 2, cap);
        // Two gray candidates; adding the one at est 1 with energy 10 gives
        // env ≥ 2·1 + 10 + 2 (theta at est 3 counted after est 1) = 14,
        // whereas gray at est 4 energy 3 gives 2·4 + 3 = 11 or with theta
        // energy after est 3... compute exact below.
        tt.set_lambda(1, 1, 10, cap);
        tt.set_lambda(3, 4, 3, cap);
        let (env_l, resp) = tt.env_lambda();
        // With gray 1: tasks (0,4),(1,10),(3,2): brute env = max(0+16, 2+12, 6+2) = 16? cut at 0: 0+16=16; cut 1: 2+12=14; cut 3: 6+2=8 → 16.
        // With gray 3: tasks (0,4),(3,2),(4,3): cut 0: 9; cut 3: 6+5=11; cut 4: 8+3=11 → 11.
        assert_eq!(env_l, 16);
        assert_eq!(resp, Some(1));
    }

    #[test]
    fn lambda_resp_updates_after_promotion() {
        let cap = 1;
        let mut tt = ThetaTree::default();
        tt.reset(2);
        tt.set_lambda(0, 0, 5, cap);
        tt.set_lambda(1, 2, 4, cap);
        let (env_l, resp) = tt.env_lambda();
        assert_eq!(env_l, 6); // gray 1: 1·2+4=6 > gray 0: 0+5=5
        assert_eq!(resp, Some(1));
        // Promote gray 1 to Θ; remaining gray is 0.
        tt.set_theta(1, 2, 4, cap);
        let (env_l2, resp2) = tt.env_lambda();
        assert_eq!(tt.env(), 6);
        // Θ = {(2,4)}, gray 0 = (0,5): cut 0 → 0·1 + 5 + 4 = 9.
        assert_eq!(env_l2, 9);
        assert_eq!(resp2, Some(0));
    }
}
