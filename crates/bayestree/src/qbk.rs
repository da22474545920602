//! Refinement (improvement) strategies across the per-class trees.
//!
//! One Bayes tree is built per class, so in each time step the classifier
//! must decide *which class's* model to refine next.  The paper's extensive
//! experiments found refining the `k` currently most probable classes in
//! turns (`qbk`) to perform best, with `k = min{2, floor(log2 m)}` for `m`
//! classes; the evaluation of Section 3.2 uses `k = 2` throughout.
//! Round-robin over all classes and always refining the single most probable
//! class are provided as ablation baselines.
//!
//! A pick is one scan over the classes that keeps the best `k` in order
//! and rejects most classes with one compare against the `k`-th score; it
//! picks exactly what sorting every refinable class (score descending,
//! then class index) and truncating to `k` picks.

/// Strategy for choosing which class tree refines its model next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefinementStrategy {
    /// Refine the `k` most probable classes in turns (`qbk`).  `k = None`
    /// uses the paper's rule `min(2, floor(log2 m)).max(1)`.
    Qbk {
        /// Number of candidate classes; `None` selects the paper's default.
        k: Option<usize>,
    },
    /// Refine every class in a fixed round-robin order.
    RoundRobin,
    /// Always refine the currently most probable class.
    MostProbable,
}

impl Default for RefinementStrategy {
    fn default() -> Self {
        RefinementStrategy::Qbk { k: None }
    }
}

impl RefinementStrategy {
    /// The paper's default `k` for `num_classes` classes.
    #[must_use]
    pub fn default_k(num_classes: usize) -> usize {
        let log = (num_classes.max(1) as f64).log2().floor() as usize;
        log.clamp(1, 2)
    }

    /// Short identifier used in reports.
    #[must_use]
    pub fn short_name(&self) -> String {
        match self {
            RefinementStrategy::Qbk { k: None } => "qbk".to_string(),
            RefinementStrategy::Qbk { k: Some(k) } => format!("qb{k}"),
            RefinementStrategy::RoundRobin => "rr".to_string(),
            RefinementStrategy::MostProbable => "top1".to_string(),
        }
    }
}

/// Round-based scheduler implementing the refinement strategies.
///
/// The scheduler is fed the current per-class posterior scores and which
/// class trees can still be refined, and answers with the class whose tree
/// should spend the next node read.
///
/// A step is one pass over the classes: qbk and most-probable keep the
/// best `k` refinable classes as they go (score descending, then class
/// index ascending) instead of sorting all of them, and round robin walks
/// from its turn to the next refinable class.  A step allocates nothing,
/// and the classifier readies one scheduler per thread for each query
/// instead of building a new one.
#[derive(Debug, Clone)]
pub struct RefinementScheduler {
    strategy: RefinementStrategy,
    num_classes: usize,
    turn: usize,
    /// Reused candidate buffer, so a step allocates nothing.
    candidates: Vec<usize>,
}

impl RefinementScheduler {
    /// Creates a scheduler for `num_classes` classes.
    #[must_use]
    pub fn new(strategy: RefinementStrategy, num_classes: usize) -> Self {
        Self {
            strategy,
            num_classes,
            turn: 0,
            candidates: Vec::with_capacity(num_classes),
        }
    }

    /// Readies the scheduler for a new query over `num_classes` classes
    /// under `strategy`, as [`Self::new`] would, keeping the candidate
    /// buffer's allocation.
    pub(crate) fn reset(&mut self, strategy: RefinementStrategy, num_classes: usize) {
        self.strategy = strategy;
        self.num_classes = num_classes;
        self.turn = 0;
        self.candidates.clear();
    }

    /// The effective `k` used by the qbk strategy.
    #[must_use]
    pub fn effective_k(&self) -> usize {
        match self.strategy {
            RefinementStrategy::Qbk { k } => k
                .unwrap_or_else(|| RefinementStrategy::default_k(self.num_classes))
                .clamp(1, self.num_classes.max(1)),
            RefinementStrategy::RoundRobin => self.num_classes,
            RefinementStrategy::MostProbable => 1,
        }
    }

    /// Chooses the class to refine next, or `None` when no class is
    /// refinable.
    ///
    /// `scores[c]` is the current (unnormalised) posterior of class `c`;
    /// `refinable[c]` says whether that class's frontier can still be
    /// refined.
    pub fn next_class(&mut self, scores: &[f64], refinable: &[bool]) -> Option<usize> {
        debug_assert_eq!(scores.len(), self.num_classes);
        debug_assert_eq!(refinable.len(), self.num_classes);
        // Each strategy's one pass finds no class when none is refinable.
        let choice = match self.strategy {
            RefinementStrategy::RoundRobin => {
                // Walk from the current turn to the next refinable class.
                (0..self.num_classes)
                    .map(|offset| (self.turn + offset) % self.num_classes)
                    .find(|&c| refinable[c])
            }
            RefinementStrategy::MostProbable => {
                best_refinable(scores, refinable, 1, &mut self.candidates);
                self.candidates.first().copied()
            }
            RefinementStrategy::Qbk { .. } => {
                let k = self.effective_k();
                best_refinable(scores, refinable, k, &mut self.candidates);
                if self.candidates.is_empty() {
                    None
                } else {
                    Some(self.candidates[self.turn % self.candidates.len()])
                }
            }
        };
        if choice.is_some() {
            self.turn = self.turn.wrapping_add(1);
        }
        choice
    }
}

/// Fills `candidates` with the (up to) `k` refinable classes with the
/// highest scores, best first; equal scores rank by class index.
///
/// One pass over the classes keeps the best `k` so far in order, so a
/// step costs `O(classes * k)` instead of a sort of every refinable class.
/// Class scores are `prior * estimate.max(0.0)`, never NaN, so score
/// descending then index ascending is a total order and the result equals
/// sorting every refinable class under it and keeping the first `k`.
///
/// Classes arrive in index order, so a class ranks behind every kept class
/// of equal score: once `k` are kept, a class scoring no more than the
/// `k`-th is rejected with one compare, and any other one is appended and
/// moved up past the kept classes that score strictly less.
fn best_refinable(scores: &[f64], refinable: &[bool], k: usize, candidates: &mut Vec<usize>) {
    let k = k.max(1);
    candidates.clear();
    for (c, &score) in scores.iter().enumerate() {
        if !refinable[c] {
            continue;
        }
        if candidates.len() == k {
            if score <= scores[candidates[k - 1]] {
                continue;
            }
            candidates.pop();
        }
        candidates.push(c);
        let mut at = candidates.len() - 1;
        while at > 0 && scores[candidates[at - 1]] < score {
            candidates.swap(at - 1, at);
            at -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_k_follows_the_paper() {
        assert_eq!(RefinementStrategy::default_k(2), 1);
        assert_eq!(RefinementStrategy::default_k(4), 2);
        assert_eq!(RefinementStrategy::default_k(10), 2);
        assert_eq!(RefinementStrategy::default_k(26), 2);
        assert_eq!(RefinementStrategy::default_k(1), 1);
    }

    #[test]
    fn qbk_alternates_between_top_two() {
        let mut sched = RefinementScheduler::new(RefinementStrategy::Qbk { k: Some(2) }, 4);
        let scores = [0.1, 0.5, 0.3, 0.05];
        let refinable = [true; 4];
        let picks: Vec<usize> = (0..4)
            .map(|_| sched.next_class(&scores, &refinable).unwrap())
            .collect();
        // Top-2 classes are 1 and 2; picks alternate between them.
        assert_eq!(picks, vec![1, 2, 1, 2]);
    }

    #[test]
    fn most_probable_always_picks_the_best() {
        let mut sched = RefinementScheduler::new(RefinementStrategy::MostProbable, 3);
        let scores = [0.2, 0.7, 0.1];
        let refinable = [true, true, true];
        for _ in 0..3 {
            assert_eq!(sched.next_class(&scores, &refinable), Some(1));
        }
    }

    #[test]
    fn round_robin_cycles_over_refinable_classes() {
        let mut sched = RefinementScheduler::new(RefinementStrategy::RoundRobin, 3);
        let scores = [0.0, 0.0, 0.0];
        let refinable = [true, false, true];
        let picks: Vec<usize> = (0..4)
            .map(|_| sched.next_class(&scores, &refinable).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 2, 2, 0]);
    }

    #[test]
    fn exhausted_frontiers_are_skipped() {
        let mut sched = RefinementScheduler::new(RefinementStrategy::Qbk { k: Some(2) }, 3);
        let scores = [0.9, 0.05, 0.05];
        let refinable = [false, true, true];
        let pick = sched.next_class(&scores, &refinable).unwrap();
        assert_ne!(pick, 0);
    }

    #[test]
    fn no_refinable_class_returns_none() {
        let mut sched = RefinementScheduler::new(RefinementStrategy::default(), 2);
        assert_eq!(sched.next_class(&[0.5, 0.5], &[false, false]), None);
    }

    /// The reference: sort every refinable class by score descending,
    /// then index ascending, and keep the first `k`.
    fn sorted_top_k(scores: &[f64], refinable: &[bool], k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..scores.len()).filter(|&c| refinable[c]).collect();
        all.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        all.truncate(k.max(1));
        all
    }

    /// The one-pass top `k` equals sort-then-truncate over random scores
    /// drawn from a few values (so ties are common), with zeros and `+inf`,
    /// random refinable masks and every `k` from 1 to `n + 1`.
    #[test]
    fn linear_top_k_equals_sort_then_truncate() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9B4);
        let palette = [0.0, 0.0, 1e-300, 0.25, 0.25, 0.5, 3.0, f64::INFINITY];
        let mut candidates = Vec::new();
        for _ in 0..2_000 {
            let n = rng.random_range(0..30usize);
            let scores: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.random::<f64>() < 0.5 {
                        palette[rng.random_range(0..palette.len())]
                    } else {
                        rng.random::<f64>()
                    }
                })
                .collect();
            let p_refinable = rng.random::<f64>();
            let refinable: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < p_refinable).collect();
            for k in 1..=n + 1 {
                best_refinable(&scores, &refinable, k, &mut candidates);
                assert_eq!(
                    candidates,
                    sorted_top_k(&scores, &refinable, k),
                    "scores {scores:?}, refinable {refinable:?}, k {k}"
                );
            }
        }
    }

    /// The scheduler as a sort: qbk picks in turn among the sort-then-
    /// truncate top `k` and advances its turn only on a pick.
    struct SortingScheduler {
        k: usize,
        turn: usize,
    }

    impl SortingScheduler {
        fn next_class(&mut self, scores: &[f64], refinable: &[bool]) -> Option<usize> {
            let top = sorted_top_k(scores, refinable, self.k);
            let pick = (!top.is_empty()).then(|| top[self.turn % top.len()]);
            if pick.is_some() {
                self.turn += 1;
            }
            pick
        }
    }

    /// `next_class` picks what the sorting scheduler picks at every step of
    /// random queries: each step moves one class's score (to a tie, a zero,
    /// `+inf` or a fresh value) and toggles refinable flags, for qbk with
    /// `k` = 1, 2, 3 and 5.  One scheduler serves every query through
    /// `reset`, as the classifier's pooled one does.
    #[test]
    fn qbk_picks_equal_a_sorting_scheduler_under_random_updates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9B5);
        let palette = [0.0, 0.0, 1e-300, 0.25, 0.25, 0.5, 3.0, f64::INFINITY];
        let draw = |rng: &mut StdRng| {
            if rng.random::<f64>() < 0.6 {
                palette[rng.random_range(0..palette.len())]
            } else {
                rng.random::<f64>()
            }
        };
        for k in [1, 2, 3, 5] {
            let strategy = RefinementStrategy::Qbk { k: Some(k) };
            let mut sched = RefinementScheduler::new(strategy, 0);
            for _ in 0..300 {
                let n = rng.random_range(1..30usize);
                sched.reset(strategy, n);
                let mut reference = SortingScheduler { k, turn: 0 };
                let mut scores: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
                let mut refinable: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.8).collect();
                for step in 0..60 {
                    let pick = sched.next_class(&scores, &refinable);
                    assert_eq!(
                        pick,
                        reference.next_class(&scores, &refinable),
                        "k {k}, step {step}, scores {scores:?}, refinable {refinable:?}"
                    );
                    // The refined class's score moves; now and then its
                    // frontier runs out or another class's flag flips.
                    let class = pick.unwrap_or_else(|| rng.random_range(0..n));
                    scores[class] = draw(&mut rng);
                    if rng.random::<f64>() < 0.15 {
                        refinable[class] = false;
                    }
                    if rng.random::<f64>() < 0.1 {
                        let other = rng.random_range(0..n);
                        refinable[other] = !refinable[other];
                    }
                }
            }
        }
    }

    #[test]
    fn short_names() {
        assert_eq!(RefinementStrategy::Qbk { k: None }.short_name(), "qbk");
        assert_eq!(RefinementStrategy::Qbk { k: Some(3) }.short_name(), "qb3");
        assert_eq!(RefinementStrategy::RoundRobin.short_name(), "rr");
        assert_eq!(RefinementStrategy::MostProbable.short_name(), "top1");
    }
}
