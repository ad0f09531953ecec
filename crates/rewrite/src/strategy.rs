//! Control: blocks of rules and sequences of blocks (Section 4.2).
//!
//! `block({rules}, value)` groups rules and bounds the number of condition
//! checks; `seq((blocks), value)` runs blocks in order, a bounded number
//! of passes. "Any optimizer generated with the rule language is a
//! sequence of blocks of rules which can be applied multiple times."
//!
//! The block loop here is the kernel's hot path. Each strategy run (one
//! [`run_strategy`] or [`run_strategy_explore`] call) creates one
//! `RunState`, passes it explicitly through every block it runs, and
//! drops it when the run ends. Three things keep the loop fast without
//! changing observable semantics (rewrite results, application order,
//! trace, and `condition_checks` accounting are identical to the naive
//! loop that gives every block fresh state and every attempt a full
//! scan):
//!
//! * [`RuleIndex`] resolves each member rule's LHS root functor, once per
//!   run for each distinct block, so every attempt starts with an O(1)
//!   fingerprint test ("does this functor occur anywhere in the query?")
//!   instead of a term walk;
//! * one *run-wide worklist*: a log of every application path, shared by
//!   all blocks and passes, and for each rule the log length at which it
//!   last failed everywhere. A rule that failed anywhere earlier in the
//!   run — in this block or any before it — re-scans only the regions the
//!   applications logged since then changed (each rewritten subtree plus
//!   its ancestor spine), not the whole term;
//! * a *method memo* ([`MethodMemo`]): a constraint-position method call
//!   that failed is answered from the memo when a later scan repeats it,
//!   exploration candidates included.

use std::collections::{HashMap, HashSet};

use crate::engine::{scan_rule, RewriteStats};
use crate::error::{RewriteError, RwResult};
use crate::methods::{MethodMemo, MethodRegistry, TermEnv};
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::Term;
use crate::trace::{Trace, TraceEvent};

/// Block application limit: a finite number of condition checks, or
/// saturation ("an infinite limit means application up to saturation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// At most this many condition checks.
    Finite(u64),
    /// Run until no rule in the block applies.
    Infinite,
}

impl Limit {
    fn budget(self) -> u64 {
        match self {
            Limit::Finite(n) => n,
            Limit::Infinite => u64::MAX,
        }
    }
}

impl std::fmt::Display for Limit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Limit::Finite(n) => write!(f, "{n}"),
            Limit::Infinite => write!(f, "INF"),
        }
    }
}

/// A named block of rules with its application limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block name, referenced by sequences.
    pub name: String,
    /// Names of member rules (the same rule may appear in several blocks).
    pub rules: Vec<String>,
    /// Condition-check budget.
    pub limit: Limit,
}

impl std::fmt::Display for Block {
    /// Renders in the concrete syntax of Figure 6 minus the trailing `;`,
    /// so `format!("{block} ;")` reparses — the autofix engine relies on
    /// this to regenerate block definitions.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "block({}, {{", self.name)?;
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}, {})", self.limit)
    }
}

/// The meta-rule ordering blocks: run `blocks` in sequence, `passes`
/// times.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    /// Block names, applied in order.
    pub blocks: Vec<String>,
    /// Maximum number of passes over the whole list.
    pub passes: u64,
}

/// An indexed set of rules (the rewriting knowledge base).
///
/// Removal tombstones the slot instead of shifting the tail, so both
/// `remove` and `get` are O(1); iteration stays in insertion order. The
/// slot vector is compacted once tombstones outnumber live rules.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    slots: Vec<Option<Rule>>,
    index: HashMap<String, usize>,
    live: usize,
}

impl RuleSet {
    /// Empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule. Returns the previously registered rule with the same
    /// name when the call replaced one (`HashMap::insert` style), so
    /// callers can surface silent shadowing instead of swallowing it.
    pub fn add(&mut self, rule: Rule) -> Option<Rule> {
        if let Some(&i) = self.index.get(&rule.name) {
            self.slots[i].replace(rule)
        } else {
            self.index.insert(rule.name.clone(), self.slots.len());
            self.slots.push(Some(rule));
            self.live += 1;
            None
        }
    }

    /// Is a rule with this name registered?
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Remove a rule by name; the database implementor "can add or delete
    /// rewriting rules". O(1): the slot is tombstoned, not shifted over.
    pub fn remove(&mut self, name: &str) -> bool {
        match self.index.remove(name) {
            Some(i) => {
                self.slots[i] = None;
                self.live -= 1;
                if self.slots.len() >= 16 && self.live * 2 < self.slots.len() {
                    self.compact();
                }
                true
            }
            None => false,
        }
    }

    /// Drop tombstones and rebuild the name index. Amortized against the
    /// removals that created the tombstones.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        self.index.clear();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(r) = slot {
                self.index.insert(r.name.clone(), i);
            }
        }
    }

    /// Look up a rule.
    pub fn get(&self, name: &str) -> Option<&Rule> {
        self.slot(name).map(|(_, r)| r)
    }

    /// Look up a rule together with its slot number, which stays fixed
    /// while the set is not mutated and is below [`RuleSet::slot_count`].
    fn slot(&self, name: &str) -> Option<(usize, &Rule)> {
        let &i = self.index.get(name)?;
        self.slots[i].as_ref().map(|r| (i, r))
    }

    /// One more than the highest slot number.
    fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// All rules, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no rules are present.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// A complete control strategy: block definitions plus the sequence
/// meta-rule. "Changing block definitions or the list of blocks in the
/// sequence meta-rule may completely change the generated optimizer."
#[derive(Debug, Clone, Default)]
pub struct Strategy {
    blocks: Vec<Block>,
    by_name: HashMap<String, usize>,
    /// The sequence meta-rule; defaults to all blocks, one pass.
    pub sequence: Option<Sequence>,
    /// Names of *choice-point* blocks: blocks whose rules are heuristic
    /// (permutation, merging, semantic transformations) rather than pure
    /// normalization, so intermediate states they pass through are worth
    /// keeping as exploration candidates. Only consulted by
    /// [`run_strategy_explore`]; plain [`run_strategy`] ignores it.
    explore: HashSet<String>,
}

impl Strategy {
    /// Empty strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define (or replace) a block.
    pub fn add_block(&mut self, block: Block) {
        if let Some(&i) = self.by_name.get(&block.name) {
            self.blocks[i] = block;
        } else {
            self.by_name.insert(block.name.clone(), self.blocks.len());
            self.blocks.push(block);
        }
    }

    /// Set the sequence meta-rule.
    pub fn set_sequence(&mut self, seq: Sequence) {
        self.sequence = Some(seq);
    }

    /// Look up a block.
    pub fn block(&self, name: &str) -> Option<&Block> {
        self.by_name.get(name).map(|&i| &self.blocks[i])
    }

    /// Override the limit of an existing block — the dynamic-limit knob
    /// discussed in the paper's conclusion ("limits can even be adjusted
    /// during the query rewriting process").
    pub fn set_limit(&mut self, block: &str, limit: Limit) -> RwResult<()> {
        match self.by_name.get(block) {
            Some(&i) => {
                self.blocks[i].limit = limit;
                Ok(())
            }
            None => Err(RewriteError::UnknownBlock(block.to_owned())),
        }
    }

    /// Blocks in definition order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Declare which blocks are choice points for cost-guided
    /// exploration (replaces any previous set). Unknown names are
    /// harmless — they simply never match a block.
    pub fn set_explore_blocks<I, S>(&mut self, names: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.explore = names.into_iter().map(Into::into).collect();
    }

    /// Is `name` a declared choice-point block?
    pub fn is_explore_block(&self, name: &str) -> bool {
        self.explore.contains(name)
    }

    /// The effective block execution order.
    pub(crate) fn order(&self) -> (Vec<&Block>, u64) {
        match &self.sequence {
            Some(seq) => (
                seq.blocks.iter().filter_map(|n| self.block(n)).collect(),
                seq.passes,
            ),
            None => (self.blocks.iter().collect(), 1),
        }
    }
}

/// Beyond this many logged paths a full rescan is cheaper than a
/// restricted one.
const DIRTY_PATH_CAP: usize = 64;

/// The run-wide position worklist.
///
/// After a rule scans the term and fails, only later applications can make
/// it match again — and only at the rewritten positions' spines or
/// subtrees. The log holds every application's path in order; a rule that
/// failed when the log had length `k` re-scans `log[k..]` only.
#[derive(Debug)]
struct Worklist {
    /// Path of every application since the last reset, in order. Never
    /// deduplicated: a rule that failed between two applications at the
    /// same path must still see the second one.
    log: Vec<Vec<usize>>,
    /// Per rule slot: `log.len()` when the rule last failed to match
    /// anywhere on the term; `None` while it has untested positions
    /// (initially, and right after it fires: its scan stopped at the
    /// application site, so later positions were never examined).
    failed_at: Vec<Option<usize>>,
}

impl Worklist {
    fn new(slots: usize) -> Self {
        Worklist {
            log: Vec::new(),
            failed_at: vec![None; slots],
        }
    }

    /// What the rule in `slot` has to re-scan: `None` for the whole term,
    /// otherwise the paths changed since it failed (empty when nothing
    /// changed, so the attempt is resolved without touching the term).
    fn dirty(&self, slot: usize) -> Option<&[Vec<usize>]> {
        let tail = &self.log[self.failed_at[slot]?..];
        (tail.len() <= DIRTY_PATH_CAP).then_some(tail)
    }

    /// The rule in `slot` matched nowhere on the current term.
    fn failed(&mut self, slot: usize) {
        self.failed_at[slot] = Some(self.log.len());
    }

    /// The rule in `slot` rewrote the subterm at `path`.
    fn applied(&mut self, slot: usize, path: Vec<usize>) {
        self.log.push(path);
        self.failed_at[slot] = None;
    }

    /// Forget everything: the next attempts run on an unrelated term.
    fn reset(&mut self) {
        self.log.clear();
        self.failed_at.fill(None);
    }
}

/// The state one strategy run threads through all of its blocks: the
/// worklist and the method memo. Created at the start of the run and
/// dropped at its end, so nothing outlives the statement it served.
#[derive(Debug)]
struct RunState {
    worklist: Worklist,
    memo: MethodMemo,
}

impl RunState {
    fn new(rules: &RuleSet) -> Self {
        RunState {
            worklist: Worklist::new(rules.slot_count()),
            memo: MethodMemo::default(),
        }
    }
}

/// Root-functor index over a block's member rules.
///
/// Built once per run for each distinct block: resolves member names
/// against the [`RuleSet`], records each rule's LHS head [`Symbol`] and
/// worklist slot, and ORs their fingerprint bits into a mask. During the
/// saturation loop an attempt against a rule whose head functor does not
/// occur in the query is rejected by one AND against the term's cached
/// fingerprint — the term is never walked. Rules whose LHS is not an
/// application (a bare variable or constant pattern) are *wildcards* and
/// always scan.
///
/// Missing members are skipped, matching the block semantics for deleted
/// rules.
#[derive(Debug)]
pub struct RuleIndex<'r> {
    members: Vec<IndexedRule<'r>>,
    head_mask: u64,
    wildcards: usize,
}

#[derive(Debug)]
struct IndexedRule<'r> {
    rule: &'r Rule,
    head: Option<Symbol>,
    /// The rule's slot in the [`RuleSet`], which keys its worklist entry:
    /// a rule listed by several blocks shares one entry.
    slot: usize,
}

impl<'r> RuleIndex<'r> {
    /// Index `block`'s members against `rules`.
    pub fn build(rules: &'r RuleSet, block: &Block) -> Self {
        let mut members = Vec::with_capacity(block.rules.len());
        let mut head_mask = 0u64;
        let mut wildcards = 0usize;
        for name in &block.rules {
            let Some((slot, rule)) = rules.slot(name) else {
                continue;
            };
            let head = rule.lhs.head();
            match head {
                Some(h) => head_mask |= h.fp_bit(),
                None => wildcards += 1,
            }
            members.push(IndexedRule { rule, head, slot });
        }
        RuleIndex {
            members,
            head_mask,
            wildcards,
        }
    }

    /// Number of resolvable member rules.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the block has no resolvable members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// O(1) pretest: can *any* member rule possibly match `term`? False
    /// means every member's head functor is provably absent.
    pub fn any_head_present(&self, term: &Term) -> bool {
        self.wildcards > 0 || self.head_mask & term.fingerprint() != 0
    }
}

/// A strategy's block order with each distinct block's [`RuleIndex`]
/// built once, at the start of a run.
struct Schedule<'r> {
    /// Blocks in execution order, each with the position of its index.
    steps: Vec<(&'r Block, usize)>,
    indexes: Vec<RuleIndex<'r>>,
    passes: u64,
}

impl<'r> Schedule<'r> {
    fn new(rules: &'r RuleSet, strategy: &'r Strategy) -> Self {
        let (order, passes) = strategy.order();
        let mut indexes = Vec::new();
        let mut built: HashMap<&str, usize> = HashMap::new();
        let steps = order
            .into_iter()
            .map(|block| {
                let at = *built.entry(block.name.as_str()).or_insert_with(|| {
                    indexes.push(RuleIndex::build(rules, block));
                    indexes.len() - 1
                });
                (block, at)
            })
            .collect();
        Schedule {
            steps,
            indexes,
            passes,
        }
    }
}

/// Outcome of a strategy run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The rewritten term.
    pub term: Term,
    /// Aggregate counters.
    pub stats: RewriteStats,
    /// Per-application trace (empty unless tracing was requested). Under
    /// exploration the trace describes the *mainline* saturation run;
    /// when a candidate wins, [`RunOutcome::exploration`] records the
    /// divergence.
    pub trace: Trace,
    /// True when some block stopped because its limit ran out rather than
    /// by saturation.
    pub budget_exhausted: bool,
    /// Cost-guided exploration report ([`run_strategy_explore`] only).
    pub exploration: Option<Exploration>,
}

/// What cost-guided exploration did for one statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exploration {
    /// Plans scored, including the mainline saturation result.
    pub considered: u64,
    /// Estimated cost of the emitted plan.
    pub chosen_cost: f64,
    /// Estimated cost of the best plan *not* emitted, when more than one
    /// was scored.
    pub runner_up_cost: Option<f64>,
    /// True when the emitted plan is not the mainline result.
    pub improved: bool,
}

/// Knobs and scoring callback for [`run_strategy_explore`].
///
/// The score maps a candidate term to an estimated execution cost
/// (`None` when the term cannot be lowered or estimated — such
/// candidates are discarded). The budget generalizes the paper's
/// fixed block limits: exploration stops as soon as the best plan found
/// so far is already cheaper than the estimated price of normalizing
/// one more candidate (`check_cost` × the running per-candidate check
/// average), or when `max_checks`/`k` run out.
pub struct ExploreOptions<'a> {
    /// Maximum candidates to normalize and score (beyond the mainline).
    pub k: usize,
    /// Hard cap on condition checks spent normalizing candidates.
    pub max_checks: u64,
    /// Estimated-cost units one condition check is worth; the exchange
    /// rate between rewrite-time work and execution-time work.
    pub check_cost: f64,
    /// Plan scoring callback.
    pub score: &'a dyn Fn(&Term) -> Option<f64>,
}

/// Per block run, at most this many trajectory snapshots are retained as
/// exploration candidates: the pre-block state plus the most recent
/// states (late snapshots have absorbed the most normalization, so they
/// are the likeliest to differ from the mainline only at the harmful
/// step).
const SNAPSHOT_CAP: usize = 16;

/// Run one block to saturation or budget exhaustion. Each *condition
/// check* (attempt to match one rule against the query) costs one unit of
/// the block's limit, following Section 4.2 — including attempts resolved
/// by the fingerprint pretest or the worklist without scanning, so a
/// block's `Limit` means exactly what it meant under the naive loop.
///
/// A standalone call is a run of its own, with fresh run state.
pub fn apply_block(
    rules: &RuleSet,
    block: &Block,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    term: Term,
    collect_trace: bool,
) -> RwResult<RunOutcome> {
    // Blocks may reference rules the implementor has since deleted
    // ("the database implementor can add or delete rewriting rules");
    // missing members are skipped rather than failing the whole block.
    let index = RuleIndex::build(rules, block);
    let mut state = RunState::new(rules);
    apply_block_capture(
        block,
        &index,
        methods,
        env,
        term,
        collect_trace,
        None,
        &mut state,
    )
}

/// [`apply_block`] within a run: `index` is the block's member index and
/// `state` the run's worklist and memo. Optionally snapshots the term
/// before each successful application into `capture` (bounded by
/// [`SNAPSHOT_CAP`]: the pre-block state plus the most recent states).
/// The saturation loop itself is unchanged by capturing — the snapshots
/// are the block's visited trajectory, which cost-guided exploration
/// mines for candidates.
#[allow(clippy::too_many_arguments)]
fn apply_block_capture(
    block: &Block,
    index: &RuleIndex<'_>,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    mut term: Term,
    collect_trace: bool,
    mut capture: Option<&mut Vec<Term>>,
    state: &mut RunState,
) -> RwResult<RunOutcome> {
    let mut budget = block.limit.budget();
    let mut stats = RewriteStats::default();
    let mut trace = Trace::default();
    let mut exhausted = false;

    'outer: loop {
        let mut progressed = false;
        for member in &index.members {
            if budget == 0 {
                exhausted = true;
                break 'outer;
            }
            budget -= 1;
            // Resolve the attempt as cheaply as the worklist allows;
            // every branch costs exactly one condition check.
            let dirty = state.worklist.dirty(member.slot);
            let outcome = if dirty.is_some_and(<[_]>::is_empty)
                || member.head.is_some_and(|h| !term.may_contain(h))
            {
                stats.condition_checks += 1;
                None
            } else {
                scan_rule(
                    member.rule,
                    &term,
                    dirty,
                    methods,
                    env,
                    &mut state.memo,
                    &mut stats,
                )?
            };
            match outcome {
                Some((new_term, app)) => {
                    if let Some(snaps) = capture.as_deref_mut() {
                        if snaps.len() >= SNAPSHOT_CAP {
                            // Keep the pre-block state, evict the oldest
                            // intermediate.
                            snaps.remove(1);
                        }
                        snaps.push(term.clone());
                    }
                    if collect_trace {
                        trace.push(TraceEvent {
                            block: block.name.clone(),
                            rule: member.rule.name.clone(),
                            path: app.path.clone(),
                            before_size: term.size(),
                            after_size: new_term.size(),
                        });
                    }
                    term = new_term;
                    progressed = true;
                    state.worklist.applied(member.slot, app.path);
                }
                None => state.worklist.failed(member.slot),
            }
        }
        if !progressed {
            break;
        }
    }

    Ok(RunOutcome {
        term,
        stats,
        trace,
        budget_exhausted: exhausted,
        exploration: None,
    })
}

/// Run a full strategy: the sequence of blocks, `passes` times, stopping
/// early once a whole pass makes no change.
pub fn run_strategy(
    rules: &RuleSet,
    strategy: &Strategy,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    mut term: Term,
    collect_trace: bool,
) -> RwResult<RunOutcome> {
    let schedule = Schedule::new(rules, strategy);
    let mut state = RunState::new(rules);
    let mut stats = RewriteStats::default();
    let mut trace = Trace::default();
    let mut exhausted = false;

    for _ in 0..schedule.passes {
        let before = term.clone();
        for &(block, at) in &schedule.steps {
            let outcome = apply_block_capture(
                block,
                &schedule.indexes[at],
                methods,
                env,
                term,
                collect_trace,
                None,
                &mut state,
            )?;
            term = outcome.term;
            stats.absorb(outcome.stats);
            trace.extend(outcome.trace);
            exhausted |= outcome.budget_exhausted;
        }
        if term == before {
            break;
        }
    }

    Ok(RunOutcome {
        term,
        stats,
        trace,
        budget_exhausted: exhausted,
        exploration: None,
    })
}

/// [`run_strategy`] plus cost-guided candidate exploration.
///
/// The mainline saturation run proceeds exactly as under
/// [`run_strategy`], but at each declared choice-point block (see
/// [`Strategy::set_explore_blocks`]) the trajectory of intermediate
/// terms is snapshotted. Afterwards, each snapshot — a state the
/// saturation passed *through* and would normally discard — is
/// normalized by the remaining non-choice-point blocks of the sequence
/// and scored; the cheapest plan overall is emitted.
///
/// Skipping the choice-point blocks during candidate normalization is
/// what preserves the candidate's distinguishing shape (re-running the
/// merging block would just re-flatten an intentionally kept nested
/// join); it is sound because every rule in the knowledge base is
/// semantics-preserving, so *any* prefix of applications yields an
/// equivalent plan.
///
/// Exploration work is bounded by the cost budget in `explore` (see
/// [`ExploreOptions`]); the extra condition checks are accounted in
/// `RewriteStats::explore_checks`, leaving `condition_checks` identical
/// to what `Simple` would report for the same statement.
pub fn run_strategy_explore(
    rules: &RuleSet,
    strategy: &Strategy,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    mut term: Term,
    collect_trace: bool,
    explore: &ExploreOptions,
) -> RwResult<RunOutcome> {
    let schedule = Schedule::new(rules, strategy);
    let mut state = RunState::new(rules);
    let mut stats = RewriteStats::default();
    let mut trace = Trace::default();
    let mut exhausted = false;
    // (pass, block index, term) for every snapshot taken at a
    // choice-point block; the position locates the remaining blocks the
    // candidate still has to be normalized by.
    let mut snapshots: Vec<(u64, usize, Term)> = Vec::new();

    for pass in 0..schedule.passes {
        let before = term.clone();
        for (bi, &(block, at)) in schedule.steps.iter().enumerate() {
            let mut taken: Vec<Term> = Vec::new();
            let capture = strategy.is_explore_block(&block.name).then_some(&mut taken);
            let outcome = apply_block_capture(
                block,
                &schedule.indexes[at],
                methods,
                env,
                term,
                collect_trace,
                capture,
                &mut state,
            )?;
            term = outcome.term;
            stats.absorb(outcome.stats);
            trace.extend(outcome.trace);
            exhausted |= outcome.budget_exhausted;
            snapshots.extend(taken.into_iter().map(|t| (pass, bi, t)));
        }
        if term == before {
            break;
        }
    }

    // Score the mainline; an unscorable mainline disables exploration
    // for this statement (nothing to compare against).
    let Some(mainline_cost) = (explore.score)(&term) else {
        return Ok(RunOutcome {
            term,
            stats,
            trace,
            budget_exhausted: exhausted,
            exploration: None,
        });
    };
    stats.explore_candidates += 1;
    let mut best_term = term.clone();
    let mut best_cost = mainline_cost;
    let mut runner_up: Option<f64> = None;
    // Trajectory states already normalized (snapshots repeat when a
    // block is revisited across passes) and plans already scored (many
    // snapshots normalize to the same plan — including the mainline's).
    let mut seen_snaps: HashSet<Term> = HashSet::new();
    let mut seen_plans: HashSet<Term> = HashSet::new();
    seen_plans.insert(term.clone());
    let mut scored = 0usize;
    // The expected price of the next candidate's normalization, seeded
    // with the mainline's own check count and refined as candidates are
    // processed.
    let mut expected_checks = stats.condition_checks.max(1);

    // Most recent snapshots first: they have absorbed the most
    // normalization, so they differ from the mainline by the fewest
    // (and latest) choice-point applications.
    for (pass, bi, snap) in snapshots.into_iter().rev() {
        if scored >= explore.k {
            break;
        }
        if stats.explore_checks >= explore.max_checks
            || best_cost <= explore.check_cost * expected_checks as f64
        {
            // The best plan found is already cheaper to run than one
            // more candidate is to produce: exploring further cannot
            // pay for itself.
            stats.explore_budget_stops += 1;
            break;
        }
        if !seen_snaps.insert(snap.clone()) {
            continue;
        }
        let (normalized, checks) = normalize_candidate(
            strategy, &schedule, methods, env, pass, bi, snap, &mut state,
        )?;
        stats.explore_checks += checks;
        expected_checks = checks.max(1);
        if !seen_plans.insert(normalized.clone()) {
            continue;
        }
        scored += 1;
        stats.explore_candidates += 1;
        let Some(cost) = (explore.score)(&normalized) else {
            continue;
        };
        if cost < best_cost {
            runner_up = Some(best_cost);
            best_cost = cost;
            best_term = normalized;
        } else if runner_up.is_none_or(|r| cost < r) {
            runner_up = Some(cost);
        }
    }

    let improved = best_term != term;
    if improved {
        stats.explore_wins += 1;
    }
    Ok(RunOutcome {
        term: best_term,
        stats,
        trace,
        budget_exhausted: exhausted,
        exploration: Some(Exploration {
            considered: stats.explore_candidates,
            chosen_cost: best_cost,
            runner_up_cost: runner_up,
            improved,
        }),
    })
}

/// Normalize an exploration candidate by the remainder of the sequence:
/// the blocks after its capture position in that pass, then the
/// remaining passes — skipping choice-point blocks, whose re-application
/// would erase what makes the candidate different. Returns the
/// normalized term and the condition checks spent.
///
/// The candidate is a different term from the one the worklist describes,
/// so the worklist starts over; the method memo carries over, since
/// method results do not depend on the term being rewritten.
#[allow(clippy::too_many_arguments)]
fn normalize_candidate(
    strategy: &Strategy,
    schedule: &Schedule<'_>,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    start_pass: u64,
    start_bi: usize,
    mut term: Term,
    state: &mut RunState,
) -> RwResult<(Term, u64)> {
    state.worklist.reset();
    let mut checks = 0u64;
    for pass in start_pass..schedule.passes {
        let first = if pass == start_pass { start_bi + 1 } else { 0 };
        let before = term.clone();
        for &(block, at) in schedule.steps.iter().skip(first) {
            if strategy.is_explore_block(&block.name) {
                continue;
            }
            let outcome = apply_block_capture(
                block,
                &schedule.indexes[at],
                methods,
                env,
                term,
                false,
                None,
                state,
            )?;
            term = outcome.term;
            checks += outcome.stats.condition_checks;
        }
        if pass > start_pass && term == before {
            break;
        }
    }
    Ok((term, checks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::BasicEnv;

    fn shrink_rule() -> Rule {
        Rule::simple(
            "unwrap",
            Term::app("F", vec![Term::var("x")]),
            Term::var("x"),
        )
    }

    fn grow_rule() -> Rule {
        Rule::simple(
            "wrap",
            Term::app("G", vec![Term::var("x")]),
            Term::app("G", vec![Term::app("F", vec![Term::var("x")])]),
        )
    }

    fn nested(n: usize) -> Term {
        let mut t = Term::int(0);
        for _ in 0..n {
            t = Term::app("F", vec![t]);
        }
        t
    }

    #[test]
    fn saturation_with_decreasing_rule_terminates() {
        let mut rules = RuleSet::new();
        rules.add(shrink_rule());
        let block = Block {
            name: "b".into(),
            rules: vec!["unwrap".into()],
            limit: Limit::Infinite,
        };
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let out = apply_block(&rules, &block, &methods, &env, nested(10), false).unwrap();
        assert_eq!(out.term, Term::int(0));
        assert_eq!(out.stats.applications, 10);
        assert!(!out.budget_exhausted);
    }

    #[test]
    fn finite_limit_stops_looping_rule() {
        // "wrap" grows forever; the block budget must stop it.
        let mut rules = RuleSet::new();
        rules.add(grow_rule());
        let block = Block {
            name: "b".into(),
            rules: vec!["wrap".into()],
            limit: Limit::Finite(25),
        };
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let start = Term::app("G", vec![Term::int(1)]);
        let out = apply_block(&rules, &block, &methods, &env, start, false).unwrap();
        assert!(out.budget_exhausted);
        assert_eq!(out.stats.condition_checks, 25);
        assert_eq!(out.stats.applications, 25);
    }

    #[test]
    fn zero_limit_disables_block() {
        // "Simple queries do not need sophisticated optimization: a 0
        // limit can then be given to all blocks" (Section 7).
        let mut rules = RuleSet::new();
        rules.add(shrink_rule());
        let block = Block {
            name: "b".into(),
            rules: vec!["unwrap".into()],
            limit: Limit::Finite(0),
        };
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let start = nested(3);
        let out = apply_block(&rules, &block, &methods, &env, start.clone(), false).unwrap();
        assert_eq!(out.term, start);
        assert_eq!(out.stats.applications, 0);
    }

    #[test]
    fn sequence_runs_blocks_in_order() {
        // Block 1 rewrites A -> B, block 2 rewrites B -> C; order matters.
        let mut rules = RuleSet::new();
        rules.add(Rule::simple("ab", Term::atom("A"), Term::atom("B")));
        rules.add(Rule::simple("bc", Term::atom("B"), Term::atom("C")));
        let mut strategy = Strategy::new();
        strategy.add_block(Block {
            name: "first".into(),
            rules: vec!["ab".into()],
            limit: Limit::Infinite,
        });
        strategy.add_block(Block {
            name: "second".into(),
            rules: vec!["bc".into()],
            limit: Limit::Infinite,
        });
        strategy.set_sequence(Sequence {
            blocks: vec!["first".into(), "second".into()],
            passes: 1,
        });
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let out = run_strategy(&rules, &strategy, &methods, &env, Term::atom("A"), true).unwrap();
        assert_eq!(out.term, Term::atom("C"));
        assert_eq!(out.trace.events().len(), 2);

        // Reversed sequence needs two passes to reach C.
        strategy.set_sequence(Sequence {
            blocks: vec!["second".into(), "first".into()],
            passes: 1,
        });
        let out = run_strategy(&rules, &strategy, &methods, &env, Term::atom("A"), false).unwrap();
        assert_eq!(out.term, Term::atom("B"));
        strategy.set_sequence(Sequence {
            blocks: vec!["second".into(), "first".into()],
            passes: 2,
        });
        let out = run_strategy(&rules, &strategy, &methods, &env, Term::atom("A"), false).unwrap();
        assert_eq!(out.term, Term::atom("C"));
    }

    /// Choice block rewrites A → B → C (two steps); a separate cleanup
    /// block rewrites any `D(x)` wrapper away. Scoring A=3, B=1, C=2
    /// must make exploration emit B — a state the mainline only passed
    /// through.
    fn explore_fixture() -> (RuleSet, Strategy) {
        let mut rules = RuleSet::new();
        rules.add(Rule::simple("ab", Term::atom("A"), Term::atom("B")));
        rules.add(Rule::simple("bc", Term::atom("B"), Term::atom("C")));
        rules.add(Rule::simple(
            "unwrap_d",
            Term::app("D", vec![Term::var("x")]),
            Term::var("x"),
        ));
        let mut strategy = Strategy::new();
        strategy.add_block(Block {
            name: "choice".into(),
            rules: vec!["ab".into(), "bc".into()],
            limit: Limit::Infinite,
        });
        strategy.add_block(Block {
            name: "cleanup".into(),
            rules: vec!["unwrap_d".into()],
            limit: Limit::Infinite,
        });
        strategy.set_sequence(Sequence {
            blocks: vec!["choice".into(), "cleanup".into()],
            passes: 2,
        });
        strategy.set_explore_blocks(["choice"]);
        (rules, strategy)
    }

    fn score_abc(t: &Term) -> Option<f64> {
        match t {
            t if *t == Term::atom("A") => Some(3.0),
            t if *t == Term::atom("B") => Some(1.0),
            t if *t == Term::atom("C") => Some(2.0),
            _ => None,
        }
    }

    #[test]
    fn exploration_recovers_discarded_intermediate() {
        let (rules, strategy) = explore_fixture();
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let opts = ExploreOptions {
            k: 8,
            max_checks: 10_000,
            check_cost: 0.0,
            score: &score_abc,
        };
        let out = run_strategy_explore(
            &rules,
            &strategy,
            &methods,
            &env,
            Term::atom("A"),
            false,
            &opts,
        )
        .unwrap();
        // Mainline saturates to C; the snapshot trajectory holds A and
        // B, and B scores cheapest.
        assert_eq!(out.term, Term::atom("B"));
        let exp = out.exploration.expect("explored");
        assert!(exp.improved);
        assert_eq!(exp.chosen_cost, 1.0);
        assert_eq!(exp.runner_up_cost, Some(2.0));
        assert!(exp.considered >= 2);
        assert_eq!(out.stats.explore_wins, 1);
        assert!(out.stats.explore_checks > 0);
        // The mainline's own counters match what run_strategy reports.
        let plain =
            run_strategy(&rules, &strategy, &methods, &env, Term::atom("A"), false).unwrap();
        assert_eq!(plain.term, Term::atom("C"));
        assert_eq!(out.stats.condition_checks, plain.stats.condition_checks);
        assert_eq!(out.stats.applications, plain.stats.applications);
    }

    #[test]
    fn exploration_budget_stops_when_win_cannot_pay() {
        let (rules, strategy) = explore_fixture();
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        // Every plan is dirt cheap relative to the price of a check:
        // the budget must refuse to normalize even one candidate.
        let opts = ExploreOptions {
            k: 8,
            max_checks: 10_000,
            check_cost: 1e9,
            score: &score_abc,
        };
        let out = run_strategy_explore(
            &rules,
            &strategy,
            &methods,
            &env,
            Term::atom("A"),
            false,
            &opts,
        )
        .unwrap();
        assert_eq!(out.term, Term::atom("C"), "mainline kept");
        assert_eq!(out.stats.explore_budget_stops, 1);
        assert_eq!(out.stats.explore_checks, 0);
        let exp = out.exploration.expect("report still present");
        assert!(!exp.improved);
        assert_eq!(exp.considered, 1);
    }

    #[test]
    fn unscorable_mainline_disables_exploration() {
        let (rules, strategy) = explore_fixture();
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let opts = ExploreOptions {
            k: 8,
            max_checks: 10_000,
            check_cost: 0.0,
            score: &|_| None,
        };
        let out = run_strategy_explore(
            &rules,
            &strategy,
            &methods,
            &env,
            Term::atom("A"),
            false,
            &opts,
        )
        .unwrap();
        assert_eq!(out.term, Term::atom("C"));
        assert!(out.exploration.is_none());
        assert_eq!(out.stats.explore_candidates, 0);
    }

    #[test]
    fn candidates_are_normalized_by_remaining_blocks() {
        // The candidate kept from the choice block still goes through
        // the cleanup block: wrap the intermediate in D(...) via the
        // choice rules and check the winner is unwrapped.
        let mut rules = RuleSet::new();
        rules.add(Rule::simple(
            "ab",
            Term::atom("A"),
            Term::app("D", vec![Term::atom("B")]),
        ));
        rules.add(Rule::simple(
            "bc",
            Term::app("D", vec![Term::atom("B")]),
            Term::atom("C"),
        ));
        rules.add(Rule::simple(
            "unwrap_d",
            Term::app("D", vec![Term::var("x")]),
            Term::var("x"),
        ));
        let mut strategy = Strategy::new();
        strategy.add_block(Block {
            name: "choice".into(),
            rules: vec!["ab".into(), "bc".into()],
            limit: Limit::Infinite,
        });
        strategy.add_block(Block {
            name: "cleanup".into(),
            rules: vec!["unwrap_d".into()],
            limit: Limit::Infinite,
        });
        strategy.set_sequence(Sequence {
            blocks: vec!["choice".into(), "cleanup".into()],
            passes: 1,
        });
        strategy.set_explore_blocks(["choice"]);
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        // D(B) is a mid-choice state; normalized through cleanup it
        // becomes B, which the score prefers over the mainline C.
        let opts = ExploreOptions {
            k: 8,
            max_checks: 10_000,
            check_cost: 0.0,
            score: &|t: &Term| {
                if *t == Term::atom("B") {
                    Some(1.0)
                } else if t.is_app("D") {
                    Some(50.0)
                } else {
                    Some(10.0)
                }
            },
        };
        let out = run_strategy_explore(
            &rules,
            &strategy,
            &methods,
            &env,
            Term::atom("A"),
            false,
            &opts,
        )
        .unwrap();
        assert_eq!(out.term, Term::atom("B"), "candidate was normalized");
    }

    #[test]
    fn deleted_rules_are_skipped_by_blocks() {
        let mut rules = RuleSet::new();
        rules.add(shrink_rule());
        let block = Block {
            name: "b".into(),
            rules: vec!["missing".into(), "unwrap".into()],
            limit: Limit::Infinite,
        };
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let out = apply_block(&rules, &block, &methods, &env, nested(2), false).unwrap();
        assert_eq!(out.term, Term::int(0)); // remaining rule still runs
    }

    #[test]
    fn ruleset_add_replace_remove() {
        let mut rules = RuleSet::new();
        assert!(rules.add(shrink_rule()).is_none());
        assert!(rules.add(grow_rule()).is_none());
        assert_eq!(rules.len(), 2);
        assert!(rules.contains("unwrap"));
        // Same-name add replaces and hands back the shadowed rule.
        let replaced = rules.add(Rule::simple(
            "unwrap",
            Term::app("F", vec![Term::var("x")]),
            Term::app("H", vec![Term::var("x")]),
        ));
        assert_eq!(replaced.unwrap().rhs, Term::var("x"));
        assert_eq!(rules.len(), 2);
        assert!(rules.get("unwrap").unwrap().rhs.is_app("H"));
        assert!(rules.remove("unwrap"));
        assert!(!rules.remove("unwrap"));
        assert!(rules.get("wrap").is_some());
    }

    #[test]
    fn removal_keeps_iteration_order_and_lookups() {
        let mut rules = RuleSet::new();
        for i in 0..40 {
            rules.add(Rule::simple(
                format!("r{i}"),
                Term::app(format!("F{i}"), vec![Term::var("x")]),
                Term::var("x"),
            ));
        }
        // Remove every other rule; enough removals to trigger compaction.
        for i in (0..40).step_by(2) {
            assert!(rules.remove(&format!("r{i}")));
        }
        assert_eq!(rules.len(), 20);
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        let expected: Vec<String> = (1..40).step_by(2).map(|i| format!("r{i}")).collect();
        assert_eq!(names, expected);
        // Survivors still resolve after compaction rebuilt the index.
        for i in (1..40).step_by(2) {
            assert!(rules.get(&format!("r{i}")).is_some(), "r{i} lost");
        }
        assert!(rules.get("r0").is_none());
    }

    /// Regression: interleave remove/add/get *across* the compaction
    /// boundary (`slots.len() >= 16 && live*2 < slots.len()`). Compaction
    /// rebuilds the name index with new slot positions; every subsequent
    /// add (including same-name replacement), remove and get must agree
    /// with a straightforward model of the set.
    #[test]
    fn interleaved_mutation_across_compaction_boundary() {
        use std::collections::BTreeMap;

        fn check(rules: &RuleSet, model: &BTreeMap<String, String>, insertion: &[String]) {
            assert_eq!(rules.len(), model.len());
            assert_eq!(rules.is_empty(), model.is_empty());
            // Iteration preserves insertion order of the live rules.
            let got: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
            let expected: Vec<&str> = insertion
                .iter()
                .filter(|n| model.contains_key(*n))
                .map(String::as_str)
                .collect();
            assert_eq!(got, expected);
            // Every live rule resolves to its latest body; removed names miss.
            for (name, head) in model {
                assert!(
                    rules.get(name).is_some_and(|r| r.lhs.is_app(head)),
                    "{name} must map to head {head}"
                );
            }
        }

        let mk = |name: &str, head: &str| {
            Rule::simple(name, Term::app(head, vec![Term::var("x")]), Term::var("x"))
        };
        let mut rules = RuleSet::new();
        let mut model: BTreeMap<String, String> = BTreeMap::new();
        let mut insertion: Vec<String> = Vec::new();

        // Fill to exactly 20 slots, no tombstones.
        for i in 0..20 {
            let (name, head) = (format!("r{i}"), format!("F{i}"));
            rules.add(mk(&name, &head));
            model.insert(name.clone(), head);
            insertion.push(name);
        }
        check(&rules, &model, &insertion);

        // Remove 9 of 20: live=11, 11*2=22 >= 20, so still tombstoned.
        for i in 0..9 {
            assert!(rules.remove(&format!("r{i}")));
            model.remove(&format!("r{i}"));
        }
        check(&rules, &model, &insertion);

        // Same-name replacement through a tombstoned vector must not
        // resurrect positions: r12's head changes in place.
        rules.add(mk("r12", "G12"));
        model.insert("r12".into(), "G12".into());
        check(&rules, &model, &insertion);

        // The 10th removal crosses the boundary: live=10, 10*2=20 < 20 is
        // false... one more: live drops to 10 (20 slots) then 9 (compacts).
        assert!(rules.remove("r9"));
        model.remove("r9");
        assert!(rules.remove("r10"));
        model.remove("r10");
        check(&rules, &model, &insertion); // index was just rebuilt

        // Post-compaction: adds append at fresh slot positions, replacement
        // of a survivor keeps its compacted position, removal of a
        // pre-compaction name stays a miss.
        assert!(!rules.remove("r3"));
        rules.add(mk("r15", "H15"));
        model.insert("r15".into(), "H15".into());
        for i in 20..24 {
            let (name, head) = (format!("r{i}"), format!("F{i}"));
            rules.add(mk(&name, &head));
            model.insert(name.clone(), head);
            insertion.push(name);
        }
        check(&rules, &model, &insertion);

        // Drive straight through a *second* compaction with interleaved
        // add/remove/get on every step.
        for i in 11..22 {
            assert!(rules.remove(&format!("r{i}")), "r{i} should be live");
            model.remove(&format!("r{i}"));
            let (name, head) = (format!("n{i}"), format!("N{i}"));
            rules.add(mk(&name, &head));
            model.insert(name.clone(), head);
            insertion.push(name);
            check(&rules, &model, &insertion);
        }
    }

    #[test]
    fn rule_index_pretest_and_wildcards() {
        let mut rules = RuleSet::new();
        rules.add(shrink_rule());
        let block = Block {
            name: "b".into(),
            rules: vec!["unwrap".into(), "missing".into()],
            limit: Limit::Infinite,
        };
        let index = RuleIndex::build(&rules, &block);
        assert_eq!(index.len(), 1);
        assert!(index.any_head_present(&Term::app("F", vec![Term::int(1)])));
        assert!(!index.any_head_present(&Term::app("G", vec![Term::int(1)])));

        // A bare-variable LHS is a wildcard: it must always pass the
        // pretest.
        rules.add(Rule::simple("any", Term::var("x"), Term::atom("DONE")));
        let block2 = Block {
            name: "b2".into(),
            rules: vec!["any".into()],
            limit: Limit::Infinite,
        };
        let index2 = RuleIndex::build(&rules, &block2);
        assert!(index2.any_head_present(&Term::app("G", vec![Term::int(1)])));
    }

    #[test]
    fn worklist_matches_naive_results_on_interacting_rules() {
        // Two rules that enable each other repeatedly: G(F(x)) -> F(G(x))
        // sinks G below F; F(F(x)) -> F(x) merges. The worklist must
        // reach the same normal form and the same counters as the naive
        // full-rescan loop (fixed by the stats assertions elsewhere).
        let mut rules = RuleSet::new();
        rules.add(Rule::simple(
            "sink",
            Term::app("G", vec![Term::app("F", vec![Term::var("x")])]),
            Term::app("F", vec![Term::app("G", vec![Term::var("x")])]),
        ));
        rules.add(Rule::simple(
            "merge",
            Term::app("F", vec![Term::app("F", vec![Term::var("x")])]),
            Term::app("F", vec![Term::var("x")]),
        ));
        let block = Block {
            name: "b".into(),
            rules: vec!["sink".into(), "merge".into()],
            limit: Limit::Infinite,
        };
        // G(G(F(F(G(F(0)))))) — plenty of interaction.
        let term = Term::app(
            "G",
            vec![Term::app(
                "G",
                vec![Term::app(
                    "F",
                    vec![Term::app(
                        "F",
                        vec![Term::app("G", vec![Term::app("F", vec![Term::int(0)])])],
                    )],
                )],
            )],
        );
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let out = apply_block(&rules, &block, &methods, &env, term, false).unwrap();
        // Normal form: one F on top, Gs below, no F-F pairs: F(G(G(G(0)))).
        assert_eq!(
            out.term,
            Term::app(
                "F",
                vec![Term::app(
                    "G",
                    vec![Term::app("G", vec![Term::app("G", vec![Term::int(0)])])]
                )]
            )
        );
        assert!(!out.budget_exhausted);
    }

    #[test]
    fn worklist_carries_failures_across_blocks() {
        // `collapse` fails everywhere in the first block; the second block
        // rewrites below the root, which makes `collapse` match at the
        // root — on the spine of the logged path — when the first block
        // runs again.
        let mut rules = RuleSet::new();
        rules.add(Rule::simple(
            "collapse",
            Term::app("F", vec![Term::app("H", vec![Term::var("x")])]),
            Term::app("G", vec![Term::var("x")]),
        ));
        rules.add(Rule::simple(
            "wrap",
            Term::atom("A"),
            Term::app("H", vec![Term::atom("B")]),
        ));
        let mut strategy = Strategy::new();
        for (name, rule) in [("first", "collapse"), ("second", "wrap")] {
            strategy.add_block(Block {
                name: name.into(),
                rules: vec![rule.into()],
                limit: Limit::Infinite,
            });
        }
        strategy.set_sequence(Sequence {
            blocks: vec!["first".into(), "second".into(), "first".into()],
            passes: 1,
        });
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let start = Term::app("F", vec![Term::atom("A")]);
        let out = run_strategy(&rules, &strategy, &methods, &env, start, true).unwrap();
        assert_eq!(out.term, Term::app("G", vec![Term::atom("B")]));
        let fired: Vec<(&str, &[usize])> = out
            .trace
            .events()
            .iter()
            .map(|e| (e.rule.as_str(), e.path.as_slice()))
            .collect();
        assert_eq!(fired, vec![("wrap", &[0][..]), ("collapse", &[][..])]);
        // first: 1 failed check; second: fires, then fails; first again:
        // fires, then fails.
        assert_eq!(out.stats.condition_checks, 5);
    }

    #[test]
    fn dynamic_limit_adjustment() {
        let mut strategy = Strategy::new();
        strategy.add_block(Block {
            name: "b".into(),
            rules: vec![],
            limit: Limit::Infinite,
        });
        strategy.set_limit("b", Limit::Finite(3)).unwrap();
        assert_eq!(strategy.block("b").unwrap().limit, Limit::Finite(3));
        assert!(strategy.set_limit("nope", Limit::Infinite).is_err());
    }
}
