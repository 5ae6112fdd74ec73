//! The happens-before engine — vector clocks, race detection, lock-set
//! checking, and scheduler-policy lints — and the streaming [`Checker`]
//! that runs any selection of the crate's twelve trace analyses.
//!
//! # One stream, twelve passes
//!
//! Every analysis is a small per-event state machine (a private `Pass`:
//! `on_event(i, time, &event)`, then `finish` once the stream closes),
//! built knowing the kernel's machine and policy. A [`Checker`] is a
//! [`TraceConsumer`] that counts events (the `#i` sites the reports
//! cite), collects shared-object labels, latches the outcome at close,
//! and feeds each event to every selected pass: the seven lints of
//! [`analyze_trace`](crate::analyze_trace) and the five passes here.
//! The sweep engine streams every kernel through a checker as it runs,
//! beside the trace hash, so no trace is buffered or decoded for a
//! check. [`analyze_trace`](crate::analyze_trace), [`check_concurrency`]
//! and each standalone check (`check_races`, `check_locksets`, …) are
//! replays of a buffered trace through a checker with their selection;
//! there is one implementation per analysis.
//!
//! Pass state lives in dense `Vec`s indexed by [`ThreadId`], [`WaitId`]
//! and [`ShareId`] — the kernel hands all three out sequentially from
//! zero — and, within one object, in a `Vec` of its words sorted by word
//! (words are caller-chosen `u32`s, so they are searched, not indexed). Vector
//! clocks are joined in place: an acquire joins the object's clock into
//! the thread's, a release joins the thread's into the object's, a plain
//! access tests the live thread clock, and a `Signal` snapshot reuses its
//! slot's buffer. No clock is cloned and no record allocates once the
//! tables have grown. Only [`happens_before`], whose callers read them,
//! materializes the edge list.
//!
//! # The happens-before relation
//!
//! The engine maintains a vector clock per simulated thread and derives
//! ordering edges from the synchronization events the kernel and
//! `asym-sync` primitives emit:
//!
//! | Trace events | Edge |
//! |---|---|
//! | every event of one thread | program order (implicit in the clocks) |
//! | `Spawn { parent }` → child's first event | spawn edge |
//! | `Done` → `ThreadJoin { by, of }` | exit→join edge |
//! | `LockRelease` → next `LockAcquire` of the lock | release–acquire |
//! | `Signal { waker }` → the `Wakeup`s it causes | signal→wakeup |
//! | `BarrierArrive` → the releasing arrival | barrier epoch |
//! | `SemRelease` → later `SemAcquire` | permit hand-off |
//! | `QueuePush` → later `QueuePop` | message hand-off |
//! | `SharedAtomic` store/rmw → later load/rmw of the word | acquire/release |
//!
//! Accumulating object clocks (locks, semaphores, queues, atomics join
//! every publisher) over-approximate the per-item relation, which biases
//! the race detector toward *fewer* reports — the right direction for a
//! checker whose clean verdict gates CI.
//!
//! # Race detection
//!
//! Plain [`SharedRead`](TraceEvent::SharedRead) /
//! [`SharedWrite`](TraceEvent::SharedWrite) accesses (from `asym-sync`'s
//! `SimShared`) are checked FastTrack-style: each (object, word) keeps the
//! last read and write epoch per thread, and an access racing any
//! conflicting epoch not covered by the accessor's clock is reported as
//! [`ViolationKind::DataRace`] with both trace sites. The cited earlier
//! site is the conflicting access with the lowest record index (writes
//! searched before reads), so the report is the same on every call.
//!
//! # Lock-set checking
//!
//! An Eraser-style streaming pass over the same accesses: once two
//! distinct threads access an object while holding locks, the object is
//! treated as lock-disciplined and the intersection of lock sets over
//! *all* its accesses must stay non-empty, else
//! [`ViolationKind::InconsistentLockSet`].
//!
//! # Policy lints
//!
//! [`check_stale_ranking`] replays scheduler state and asserts that under
//! the asymmetry-aware policy every placement (spawn or wakeup) lands on
//! the fastest idle eligible core *by the speed ranking in force at that
//! instant* — a dispatch using a ranking stale since a `SpeedChange`
//! re-rank is reported as [`ViolationKind::StaleRanking`] citing both the
//! re-rank site and the offending placement. It is a no-op on traces of
//! any other policy.
//!
//! [`check_rerank_hygiene`] lints the dynamic-asymmetry trace contract
//! itself, under every policy: a `SpeedChange` that reorders the
//! online-core speed ranking must be confirmed by a `Rerank` record
//! within [`RERANK_STALENESS_BOUND`] ([`ViolationKind::StaleRerank`]),
//! and more than [`RERANK_THRASH_LIMIT`] re-ranks inside one
//! [`RERANK_THRASH_WINDOW`] is churn the environment hysteresis should
//! have damped ([`ViolationKind::RerankThrash`]).
//!
//! [`check_starvation`] is the fair-share lint; it is a no-op on traces
//! of any policy but [`PolicyKind::VruntimeFair`].

use crate::{KernelTrace, Violation, ViolationKind};
use asym_core::{KernelCheck, TraceCheck};
use asym_kernel::{
    AtomicOp, PolicyKind, RunOutcome, SchedPolicy, ShareId, ThreadId, TraceConsumer, TraceEvent,
    WaitId, WakeReason,
};
use asym_sim::{CoreId, CoreMask, MachineSpec, SimDuration, SimTime, Speed};
use std::collections::VecDeque;
use std::sync::Arc;

// ----------------------------------------------------------------------
// One stream, twelve passes
// ----------------------------------------------------------------------

/// What a pass learns when its stream closes.
pub(crate) struct End<'a> {
    /// Shared-object labels, indexed by [`ShareId`].
    pub(crate) labels: &'a [String],
    /// How the kernel's run ended.
    pub(crate) outcome: Option<RunOutcome>,
    /// The time of the last event, if any.
    pub(crate) last: Option<SimTime>,
}

/// One analysis as a per-event state machine, so every selected
/// analysis shares a single stream.
pub(crate) trait Pass {
    /// Consumes event `i` of the stream, emitted at `time` (nothing, for
    /// a pass that only judges the closed stream).
    fn on_event(&mut self, _i: usize, _time: SimTime, _event: &TraceEvent) {}
    /// The findings, once the stream has closed.
    fn finish(self: Box<Self>, end: &End<'_>) -> Vec<Violation>;
}

/// The slot for `idx` in a dense per-index table, grown on demand.
pub(crate) fn slot<T: Default>(table: &mut Vec<T>, idx: usize) -> &mut T {
    if table.len() <= idx {
        table.resize_with(idx + 1, T::default);
    }
    &mut table[idx]
}

/// A selection of the twelve single-trace analyses a [`Checker`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Analyses(u16);

impl Analyses {
    /// Wait-for cycles among lock waiters ([`ViolationKind::Deadlock`]).
    pub const DEADLOCK: Analyses = Analyses(1);
    /// Lockdep ordering ([`ViolationKind::LockOrderInversion`]).
    pub const LOCK_ORDER: Analyses = Analyses(1 << 1);
    /// Missed signals ([`ViolationKind::LostWakeup`]).
    pub const LOST_WAKEUP: Analyses = Analyses(1 << 2);
    /// The asymmetry invariant ([`ViolationKind::FastCoreIdle`]).
    pub const FAST_CORE_IDLE: Analyses = Analyses(1 << 3);
    /// Core liveness ([`ViolationKind::OfflineDispatch`]).
    pub const OFFLINE_DISPATCH: Analyses = Analyses(1 << 4);
    /// Forward progress ([`ViolationKind::StalledRun`]).
    pub const FORWARD_PROGRESS: Analyses = Analyses(1 << 5);
    /// Kill accounting ([`ViolationKind::DroppedKill`]).
    pub const KILL_ACCOUNTING: Analyses = Analyses(1 << 6);
    /// Vector-clock data races ([`check_races`]).
    pub const RACES: Analyses = Analyses(1 << 7);
    /// Eraser-style lock sets ([`check_locksets`]).
    pub const LOCK_SETS: Analyses = Analyses(1 << 8);
    /// Placement against the current ranking ([`check_stale_ranking`]).
    pub const STALE_RANKING: Analyses = Analyses(1 << 9);
    /// Re-rank staleness and thrash ([`check_rerank_hygiene`]).
    pub const RERANK_HYGIENE: Analyses = Analyses(1 << 10);
    /// Fair-share starvation ([`check_starvation`]).
    pub const STARVATION: Analyses = Analyses(1 << 11);
    /// The seven lints of [`analyze_trace`](crate::analyze_trace).
    pub const LINTS: Analyses = Analyses(0x7f);
    /// The five happens-before passes of [`check_concurrency`].
    pub const CONCURRENCY: Analyses = Analyses(0xf80);
    /// All twelve analyses.
    pub const ALL: Analyses = Analyses(0xfff);

    /// The twelve names, one per bit.
    const NAMES: &'static str = "deadlock lock-order lost-wakeup fast-core-idle offline-dispatch \
        forward-progress kill-accounting data-race lock-set stale-ranking rerank-hygiene starvation";

    /// The names of the selected analyses, in report order.
    pub fn names(self) -> impl Iterator<Item = &'static str> {
        let bits = self.0;
        Self::NAMES
            .split(' ')
            .enumerate()
            .filter_map(move |(bit, name)| (bits & (1 << bit) != 0).then_some(name))
    }

    /// Replays a buffered trace through a [`Checker`] running this
    /// selection.
    pub fn replay(self, trace: &KernelTrace) -> Vec<Violation> {
        let mut checker = Checker::new(&trace.machine, trace.policy, self);
        for label in &trace.shared_labels {
            checker.on_shared_label(label);
        }
        for r in trace.records() {
            checker.on_event(r.time, &r.event);
        }
        checker.on_close(trace.outcome, trace.budget_exhausted);
        checker.finish()
    }

    /// The sweep engine's hook: a trace check that streams every kernel
    /// through a [`Checker`] running this selection, one rendered line
    /// per finding.
    pub fn trace_check(self) -> TraceCheck {
        Arc::new(move |machine, policy| Box::new(Checker::new(machine, policy, self)))
    }
}

/// One kernel's analyses as a [`TraceConsumer`]: every event goes to
/// each selected pass as it is emitted, and [`finish`](Checker::finish)
/// reports once the stream has closed.
pub struct Checker {
    /// Index of the next event (the `#i` sites reports cite).
    next: usize,
    last: Option<SimTime>,
    labels: Vec<String>,
    outcome: Option<RunOutcome>,
    /// The selected lints, in report order.
    lints: Vec<Box<dyn Pass>>,
    /// The selected happens-before passes that read shared-access
    /// annotations (races, lock sets), then those that do not.
    accesses: Vec<Box<dyn Pass>>,
    scheduling: Vec<Box<dyn Pass>>,
}

impl Checker {
    /// A checker running `analyses` over one kernel of `machine` under
    /// `policy`. Policy-gated analyses outside their policy stay off.
    pub fn new(machine: &MachineSpec, policy: SchedPolicy, analyses: Analyses) -> Self {
        let on = |analysis: Analyses| analyses.0 & analysis.0 != 0;
        let aware = policy.is_asymmetry_aware();
        let fair = policy.kind() == PolicyKind::VruntimeFair;
        let lints: [Option<Box<dyn Pass>>; 7] = [
            on(Analyses::DEADLOCK).then(|| Box::<crate::Deadlocks>::default() as _),
            on(Analyses::LOCK_ORDER).then(|| Box::<crate::LockOrder>::default() as _),
            on(Analyses::LOST_WAKEUP).then(|| Box::<crate::LostWakeups>::default() as _),
            (on(Analyses::FAST_CORE_IDLE) && aware)
                .then(|| Box::new(crate::FastCoreIdle::new(machine)) as _),
            on(Analyses::OFFLINE_DISPATCH)
                .then(|| Box::new(crate::CoreLiveness::new(machine)) as _),
            on(Analyses::FORWARD_PROGRESS).then(|| Box::new(crate::ForwardProgress) as _),
            on(Analyses::KILL_ACCOUNTING).then(|| Box::<crate::KillAccounting>::default() as _),
        ];
        let accesses: [Option<Box<dyn Pass>>; 2] = [
            on(Analyses::RACES).then(|| Box::new(HbPass::new(None)) as _),
            on(Analyses::LOCK_SETS).then(|| Box::<LockSets>::default() as _),
        ];
        let scheduling: [Option<Box<dyn Pass>>; 3] = [
            (on(Analyses::STALE_RANKING) && aware)
                .then(|| Box::new(StaleRanking::new(machine)) as _),
            on(Analyses::RERANK_HYGIENE).then(|| Box::new(RerankHygiene::new(machine)) as _),
            (on(Analyses::STARVATION) && fair).then(|| Box::<Starvation>::default() as _),
        ];
        Checker {
            next: 0,
            last: None,
            labels: Vec::new(),
            outcome: None,
            lints: lints.into_iter().flatten().collect(),
            accesses: accesses.into_iter().flatten().collect(),
            scheduling: scheduling.into_iter().flatten().collect(),
        }
    }

    /// The findings, once the stream has closed: the lints in analysis
    /// order (deadlock, lock order, lost wakeup, fast-core idle, offline
    /// dispatch, forward progress, kill accounting), each in detection
    /// order, then the happens-before passes' findings in canonical
    /// (kind, object, site) order with duplicates removed.
    pub fn finish(self) -> Vec<Violation> {
        let end = End {
            labels: &self.labels,
            outcome: self.outcome,
            last: self.last,
        };
        let mut found: Vec<Violation> = self
            .lints
            .into_iter()
            .flat_map(|p| p.finish(&end))
            .collect();
        let hb = self.accesses.into_iter().chain(self.scheduling);
        let hb = hb.flat_map(|p| p.finish(&end)).collect();
        found.extend(crate::normalize_violations(hb));
        found
    }
}

impl TraceConsumer for Checker {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        let i = self.next;
        self.next += 1;
        self.last = Some(time);
        for pass in &mut self.accesses {
            pass.on_event(i, time, event);
        }
        // Shared-access annotations (over half of all events) change no
        // state the other passes replay, and a time advance there shows
        // them no new state, so skipping them changes no report.
        if matches!(
            event,
            TraceEvent::SharedRead { .. }
                | TraceEvent::SharedWrite { .. }
                | TraceEvent::SharedAtomic { .. }
                | TraceEvent::ThreadJoin { .. }
        ) {
            return;
        }
        for pass in self.lints.iter_mut().chain(&mut self.scheduling) {
            pass.on_event(i, time, event);
        }
    }

    fn on_shared_label(&mut self, label: &str) {
        self.labels.push(label.to_string());
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, _budget_exhausted: bool) {
        self.outcome = outcome;
    }
}

impl KernelCheck for Checker {
    fn findings(self: Box<Self>) -> Vec<String> {
        self.finish().iter().map(ToString::to_string).collect()
    }
}

// ----------------------------------------------------------------------
// Vector clocks
// ----------------------------------------------------------------------

/// A vector clock over thread indices (grown on demand; missing entries
/// are zero).
#[derive(Debug, Default)]
struct VClock(Vec<u32>);

impl VClock {
    fn get(&self, t: usize) -> u32 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn tick(&mut self, t: usize) {
        *slot(&mut self.0, t) += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, &theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(theirs);
        }
    }

    /// Does this clock cover thread `t` up to `clock`?
    fn covers(&self, t: usize, clock: u32) -> bool {
        self.get(t) >= clock
    }

    /// Overwrites this clock with `other`, reusing the buffer.
    fn copy_from(&mut self, other: &VClock) {
        self.0.clone_from(&other.0);
    }

    /// Resets every entry to zero, keeping the buffer.
    fn clear(&mut self) {
        self.0.clear();
    }
}

// ----------------------------------------------------------------------
// The happens-before graph
// ----------------------------------------------------------------------

/// Why two trace records are ordered (the label on an [`HbEdge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// `Spawn` → the child's first event.
    Spawn,
    /// A dead thread's `Done` → the `ThreadJoin` observing it.
    Join,
    /// `LockRelease` → `LockAcquire` of the same lock.
    Lock,
    /// `Signal` → the `Wakeup` it caused.
    Signal,
    /// A barrier arrival → the arrival that released the epoch.
    Barrier,
    /// `SemRelease` → `SemAcquire` of the same semaphore.
    Sem,
    /// `QueuePush` → `QueuePop` of the same queue.
    Queue,
    /// Atomic store/rmw → later load/rmw of the same (object, word).
    Atomic,
}

/// One cross-thread ordering edge between two records of a trace.
///
/// Both endpoints are indices into `trace.records`; by construction
/// `src < dst`, which (with the trace's non-decreasing timestamps) makes
/// the full relation acyclic and time-consistent — the property the HB
/// engine's regression tests pin down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbEdge {
    /// The earlier record (the release/publish side).
    pub src: usize,
    /// The later record (the acquire/observe side).
    pub dst: usize,
    /// The synchronization that justifies the edge.
    pub kind: EdgeKind,
}

/// The result of one happens-before replay: the cross-thread edge list
/// and every data race the vector-clock pass found.
#[derive(Debug, Clone, Default)]
pub struct HbAnalysis {
    /// Every cross-thread ordering edge, in discovery order.
    pub edges: Vec<HbEdge>,
    /// Data-race violations (plain accesses unordered by the relation).
    pub races: Vec<Violation>,
}

/// Names a shared object for diagnostics: `obj3 ('apache.inbox')` when
/// its registration label is known, bare `obj3` otherwise.
fn obj_name(labels: &[String], obj: ShareId) -> String {
    match labels.get(obj.index()) {
        Some(label) => format!("{obj} ('{label}')"),
        None => format!("{obj}"),
    }
}

/// The edge list, when the caller wants it (`None` records nothing).
struct Edges(Option<Vec<HbEdge>>);

impl Edges {
    fn push(&mut self, src: usize, dst: usize, kind: EdgeKind) {
        if let Some(edges) = &mut self.0 {
            edges.push(HbEdge { src, dst, kind });
        }
    }
}

/// Per-thread replay state.
#[derive(Debug, Default)]
struct ThreadState {
    clock: VClock,
    /// The wait queue the thread is parked on.
    blocked_on: Option<WaitId>,
    /// Where the thread's `Done` record sits (join-edge source).
    done_at: Option<usize>,
    /// The thread's `Spawn` record, until the thread's first own event.
    pending_spawn: Option<usize>,
}

/// An object clock paired with the record index of its latest publisher
/// (the edge source used when someone acquires from it); `src` is `None`
/// until the first publish.
#[derive(Debug, Default)]
struct Published {
    clock: VClock,
    src: Option<usize>,
}

impl Published {
    /// Joins this object's history into `thread`, returning the publisher
    /// site to draw the edge from (nothing when it was never published).
    fn acquire_into(&self, thread: &mut VClock) -> Option<usize> {
        let src = self.src?;
        thread.join(&self.clock);
        Some(src)
    }

    /// Joins `thread`'s history into this object, published at record `i`.
    fn release_from(&mut self, thread: &VClock, i: usize) {
        self.clock.join(thread);
        self.src = Some(i);
    }
}

/// Per-wait-queue replay state, one table entry per [`WaitId`] with a
/// separate object clock for each primitive kind.
#[derive(Debug, Default)]
struct WaitState {
    lock: Published,
    sem: Published,
    queue: Published,
    /// The current barrier epoch: joined arrival clocks and the pending
    /// arrival sites.
    barrier_clock: VClock,
    barrier_arrivals: Vec<usize>,
    /// The latest `Signal` on this queue: its record index, and the
    /// waker's clock when a simulated thread signalled.
    signal_at: Option<usize>,
    signal_from_thread: bool,
    signal_clock: VClock,
}

/// One plain access to a shared word: the latest by its thread.
#[derive(Debug, Clone, Copy)]
struct Access {
    tid: usize,
    /// The thread's own clock entry at the access.
    clock: u32,
    idx: usize,
    time: SimTime,
}

impl Access {
    /// Records `a` as its thread's latest access in `list`.
    fn record(list: &mut Vec<Access>, a: Access) {
        match list.iter_mut().find(|b| b.tid == a.tid) {
            Some(b) => *b = a,
            None => list.push(a),
        }
    }

    /// The access in `list` with the lowest record index that races an
    /// access by thread `t` whose clock is `me`.
    fn earliest_conflict(list: &[Access], t: usize, me: &VClock) -> Option<Access> {
        list.iter()
            .filter(|a| a.tid != t && !me.covers(a.tid, a.clock))
            .min_by_key(|a| a.idx)
            .copied()
    }
}

/// Per-(object, word) replay state: the atomic clock and the race
/// detector's last plain accesses per thread, split by kind.
#[derive(Debug, Default)]
struct WordState {
    atomic: Published,
    writes: Vec<Access>,
    reads: Vec<Access>,
    /// One race report per word.
    reported: bool,
}

/// The thread a record belongs to (its author for publishes, its subject
/// for scheduler events); used for program-order clock ticks and
/// spawn-edge completion.
fn subject(event: &TraceEvent) -> Option<ThreadId> {
    match *event {
        TraceEvent::Spawn { parent, .. } => parent,
        TraceEvent::Signal { waker, .. } => waker,
        TraceEvent::Dispatch { tid, .. }
        | TraceEvent::Migrate { tid, .. }
        | TraceEvent::Preempt { tid, .. }
        | TraceEvent::Steal { tid, .. }
        | TraceEvent::Wakeup { tid, .. }
        | TraceEvent::Block { tid, .. }
        | TraceEvent::Sleep { tid }
        | TraceEvent::Done { tid }
        | TraceEvent::LockAcquire { tid, .. }
        | TraceEvent::LockRelease { tid, .. }
        | TraceEvent::CondWait { tid, .. }
        | TraceEvent::BarrierArrive { tid, .. }
        | TraceEvent::SemAcquire { tid, .. }
        | TraceEvent::SemRelease { tid, .. }
        | TraceEvent::QueuePush { tid, .. }
        | TraceEvent::QueuePop { tid, .. }
        | TraceEvent::ThreadKilled { tid }
        | TraceEvent::SharedRead { tid, .. }
        | TraceEvent::SharedWrite { tid, .. }
        | TraceEvent::SharedAtomic { tid, .. } => Some(tid),
        TraceEvent::ThreadJoin { by, .. } => Some(by),
        TraceEvent::SetAffinity { .. }
        | TraceEvent::AffinityOverride { .. }
        | TraceEvent::SpeedChange { .. }
        | TraceEvent::Rerank { .. }
        | TraceEvent::CoreOffline { .. }
        | TraceEvent::CoreOnline { .. } => None,
    }
}

/// The state of `word` in one object's sorted word table.
fn word_state(words: &mut Vec<(u32, WordState)>, word: u32) -> &mut WordState {
    let pos = match words.binary_search_by_key(&word, |&(w, _)| w) {
        Ok(pos) => pos,
        Err(pos) => {
            words.insert(pos, (word, WordState::default()));
            pos
        }
    };
    &mut words[pos].1
}

/// Joins thread `src`'s clock into thread `dst`'s.
fn join_threads(threads: &mut Vec<ThreadState>, dst: usize, src: usize) {
    slot(threads, dst.max(src));
    if dst < src {
        let (low, high) = threads.split_at_mut(src);
        low[dst].clock.join(&high[0].clock);
    } else if src < dst {
        let (low, high) = threads.split_at_mut(dst);
        high[0].clock.join(&low[src].clock);
    }
}

/// One detected race, rendered once the stream closes (when every
/// object label is known): the object and word, and the earlier and
/// later access with their kinds.
type Race = (ShareId, u32, (Access, &'static str), (Access, &'static str));

/// The happens-before replay and its vector-clock race detector.
pub(crate) struct HbPass {
    edges: Edges,
    races: Vec<Race>,
    threads: Vec<ThreadState>,
    waits: Vec<WaitState>,
    /// Indexed by [`ShareId`]; each object's words sorted by word.
    objects: Vec<Vec<(u32, WordState)>>,
}

impl HbPass {
    fn new(edges: Option<Vec<HbEdge>>) -> Self {
        HbPass {
            edges: Edges(edges),
            races: Vec::new(),
            threads: Vec::new(),
            waits: Vec::new(),
            objects: Vec::new(),
        }
    }

    /// Record `i`: `tid` acquires from the `object` of wait queue `wait`.
    fn acquire(
        &mut self,
        i: usize,
        tid: ThreadId,
        wait: WaitId,
        object: fn(&WaitState) -> &Published,
        kind: EdgeKind,
    ) {
        let me = &mut slot(&mut self.threads, tid.index()).clock;
        if let Some(src) = self
            .waits
            .get(wait.index())
            .and_then(|w| object(w).acquire_into(me))
        {
            self.edges.push(src, i, kind);
        }
    }

    /// Record `i`: `tid` publishes to the `object` of wait queue `wait`.
    fn release(
        &mut self,
        i: usize,
        tid: ThreadId,
        wait: WaitId,
        object: fn(&mut WaitState) -> &mut Published,
    ) {
        let me = &slot(&mut self.threads, tid.index()).clock;
        object(slot(&mut self.waits, wait.index())).release_from(me, i);
    }

    /// A plain access by `tid` to (`obj`, `word`) at record `i`: checks
    /// it against the conflicting epochs (writes only for a read; writes,
    /// then reads, for a write) and records it.
    fn plain_access(
        &mut self,
        i: usize,
        time: SimTime,
        (tid, obj, word): (ThreadId, ShareId, u32),
        write: bool,
    ) {
        let t = tid.index();
        let me = &slot(&mut self.threads, t).clock;
        let access = Access {
            tid: t,
            clock: me.get(t),
            idx: i,
            time,
        };
        let state = word_state(slot(&mut self.objects, obj.index()), word);
        if !state.reported {
            let conflict = match Access::earliest_conflict(&state.writes, t, me) {
                Some(a) => Some((a, "write")),
                None if write => {
                    Access::earliest_conflict(&state.reads, t, me).map(|a| (a, "read"))
                }
                None => None,
            };
            if let Some(earlier) = conflict {
                state.reported = true;
                let later = (access, if write { "write" } else { "read" });
                self.races.push((obj, word, earlier, later));
            }
        }
        Access::record(
            if write {
                &mut state.writes
            } else {
                &mut state.reads
            },
            access,
        );
    }
}

impl Pass for HbPass {
    fn on_event(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        let subject = subject(event);

        // Complete a pending spawn edge at the child's first event.
        if let Some(t) = subject {
            if let Some(src) = self
                .threads
                .get_mut(t.index())
                .and_then(|s| s.pending_spawn.take())
            {
                if src < i {
                    self.edges.push(src, i, EdgeKind::Spawn);
                }
            }
        }

        match *event {
            TraceEvent::Spawn { tid, parent, .. } => {
                // The child inherits the parent's history.
                if let Some(p) = parent {
                    join_threads(&mut self.threads, tid.index(), p.index());
                }
                slot(&mut self.threads, tid.index()).pending_spawn = Some(i);
            }
            TraceEvent::Block { tid, wait } => {
                slot(&mut self.threads, tid.index()).blocked_on = Some(wait);
            }
            TraceEvent::Wakeup { tid, reason, .. } => {
                let thread = slot(&mut self.threads, tid.index());
                let wait = thread.blocked_on.take();
                if reason == WakeReason::Signal {
                    if let Some(w) = wait.and_then(|w| self.waits.get(w.index())) {
                        if let (Some(src), true) = (w.signal_at, w.signal_from_thread) {
                            thread.clock.join(&w.signal_clock);
                            self.edges.push(src, i, EdgeKind::Signal);
                        }
                    }
                }
            }
            TraceEvent::Signal { waker, wait, .. } => {
                let w = slot(&mut self.waits, wait.index());
                w.signal_at = Some(i);
                w.signal_from_thread = waker.is_some();
                if let Some(waker) = waker {
                    w.signal_clock
                        .copy_from(&slot(&mut self.threads, waker.index()).clock);
                }
            }
            TraceEvent::Done { tid } => {
                let thread = slot(&mut self.threads, tid.index());
                thread.done_at = Some(i);
                thread.blocked_on = None;
            }
            TraceEvent::ThreadJoin { by, of } => {
                join_threads(&mut self.threads, by.index(), of.index());
                if let Some(src) = self.threads[of.index()].done_at {
                    self.edges.push(src, i, EdgeKind::Join);
                }
            }
            TraceEvent::LockAcquire { tid, lock, .. } => {
                self.acquire(i, tid, lock, |w| &w.lock, EdgeKind::Lock);
            }
            TraceEvent::LockRelease { tid, lock } => self.release(i, tid, lock, |w| &mut w.lock),
            TraceEvent::BarrierArrive {
                tid,
                barrier,
                released,
            } => {
                let me = &mut slot(&mut self.threads, tid.index()).clock;
                let w = slot(&mut self.waits, barrier.index());
                if released {
                    // The releasing arrival acquires every earlier
                    // arrival of the epoch; waiters then inherit it
                    // through the releaser's Signal→Wakeup edges.
                    me.join(&w.barrier_clock);
                    for &src in &w.barrier_arrivals {
                        self.edges.push(src, i, EdgeKind::Barrier);
                    }
                    w.barrier_clock.clear();
                    w.barrier_arrivals.clear();
                } else {
                    w.barrier_clock.join(me);
                    w.barrier_arrivals.push(i);
                }
            }
            TraceEvent::SemRelease { tid, sem } => self.release(i, tid, sem, |w| &mut w.sem),
            TraceEvent::SemAcquire { tid, sem } => {
                self.acquire(i, tid, sem, |w| &w.sem, EdgeKind::Sem);
            }
            TraceEvent::QueuePush { tid, queue } => {
                self.release(i, tid, queue, |w| &mut w.queue);
            }
            TraceEvent::QueuePop { tid, queue } => {
                self.acquire(i, tid, queue, |w| &w.queue, EdgeKind::Queue);
            }
            TraceEvent::SharedAtomic { tid, obj, word, op } => {
                let me = &mut slot(&mut self.threads, tid.index()).clock;
                let atomic = &mut word_state(slot(&mut self.objects, obj.index()), word).atomic;
                if matches!(op, AtomicOp::Load | AtomicOp::Rmw) {
                    if let Some(src) = atomic.acquire_into(me) {
                        self.edges.push(src, i, EdgeKind::Atomic);
                    }
                }
                if matches!(op, AtomicOp::Store | AtomicOp::Rmw) {
                    atomic.release_from(me, i);
                }
            }
            TraceEvent::SharedRead { tid, obj, word } => {
                self.plain_access(i, time, (tid, obj, word), false);
            }
            TraceEvent::SharedWrite { tid, obj, word } => {
                self.plain_access(i, time, (tid, obj, word), true);
            }
            _ => {}
        }

        // Program order: the subject's clock advances past this event,
        // so anything it published here is distinguishable from its
        // later accesses.
        if let Some(t) = subject {
            slot(&mut self.threads, t.index()).clock.tick(t.index());
        }
    }

    fn finish(self: Box<Self>, end: &End<'_>) -> Vec<Violation> {
        self.races
            .into_iter()
            .map(|race| race_violation(end.labels, race))
            .collect()
    }
}

/// Replays `trace` once, building the full happens-before relation and
/// running the vector-clock race detector over plain shared accesses.
pub fn happens_before(trace: &KernelTrace) -> HbAnalysis {
    let mut pass = HbPass::new(Some(Vec::new()));
    for (i, r) in trace.records().enumerate() {
        pass.on_event(i, r.time, &r.event);
    }
    let labels = &trace.shared_labels;
    HbAnalysis {
        edges: pass.edges.0.take().unwrap_or_default(),
        races: pass
            .races
            .into_iter()
            .map(|r| race_violation(labels, r))
            .collect(),
    }
}

/// Builds the two-site diagnostic for one data race between an earlier
/// and a later access, each with its kind (`"read"` / `"write"`).
fn race_violation(
    labels: &[String],
    (obj, word, (earlier, earlier_kind), (later, later_kind)): Race,
) -> Violation {
    let object = obj_name(labels, obj);
    Violation::new(
        ViolationKind::DataRace,
        Some(later.time),
        format!(
            "word {word} of {object}: {earlier_kind} by tid{} at #{} ({}) and {later_kind} by \
             tid{} at #{} ({}) are unordered — no happens-before path connects the accesses",
            earlier.tid, earlier.idx, earlier.time, later.tid, later.idx, later.time
        ),
    )
    .with_object(object)
    .with_site(format!("#{}->#{}", earlier.idx, later.idx))
}

/// Runs the vector-clock data-race detector over `trace` (one report per
/// racy (object, word), citing both access sites).
pub fn check_races(trace: &KernelTrace) -> Vec<Violation> {
    Analyses::RACES.replay(trace)
}

// ----------------------------------------------------------------------
// Lock-set (atomicity) checking
// ----------------------------------------------------------------------

/// A plain access site for the lock-set diagnostics.
#[derive(Debug, Clone, Copy)]
struct Site {
    tid: ThreadId,
    idx: usize,
    time: SimTime,
}

/// Streaming lock-set state of one shared object.
#[derive(Debug)]
struct ObjectLocks {
    obj: ShareId,
    /// The running intersection of lock sets, up to the culprit.
    common: Vec<WaitId>,
    /// The last access that kept the intersection non-empty, and the
    /// locks it held.
    witness: Site,
    witness_held: Vec<WaitId>,
    /// The first access that emptied the intersection, and its locks.
    culprit: Option<(Site, Vec<WaitId>)>,
    /// The first thread seen accessing under a lock, and whether a
    /// second, distinct one has been seen too.
    first_locked: Option<ThreadId>,
    two_locked: bool,
}

/// The Eraser-style lock-set pass (see [`check_locksets`]).
#[derive(Default)]
pub(crate) struct LockSets {
    /// Locks each thread holds, sorted.
    held: Vec<Vec<WaitId>>,
    /// Indexed by [`ShareId`]; `None` until the object's first access.
    objects: Vec<Option<ObjectLocks>>,
}

impl Pass for LockSets {
    fn on_event(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::LockAcquire { tid, lock, .. } => {
                let held = slot(&mut self.held, tid.index());
                if let Err(pos) = held.binary_search(&lock) {
                    held.insert(pos, lock);
                }
            }
            TraceEvent::LockRelease { tid, lock } => {
                if let Some(held) = self.held.get_mut(tid.index()) {
                    if let Ok(pos) = held.binary_search(&lock) {
                        held.remove(pos);
                    }
                }
            }
            TraceEvent::SharedRead { tid, obj, .. } | TraceEvent::SharedWrite { tid, obj, .. } => {
                let held = slot(&mut self.held, tid.index());
                let site = Site { tid, idx: i, time };
                let entry = slot(&mut self.objects, obj.index());
                let first = entry.is_none();
                let o = entry.get_or_insert_with(|| ObjectLocks {
                    obj,
                    common: held.clone(),
                    witness: site,
                    witness_held: held.clone(),
                    culprit: None,
                    first_locked: None,
                    two_locked: false,
                });
                if !first && o.culprit.is_none() {
                    o.common.retain(|l| held.binary_search(l).is_ok());
                    if o.common.is_empty() {
                        o.culprit = Some((site, held.clone()));
                    } else {
                        o.witness = site;
                        o.witness_held.clone_from(held);
                    }
                }
                if !held.is_empty() {
                    match o.first_locked {
                        None => o.first_locked = Some(tid),
                        Some(first) => o.two_locked |= first != tid,
                    }
                }
            }
            _ => {}
        }
    }

    fn finish(self: Box<Self>, end: &End<'_>) -> Vec<Violation> {
        let held_list = |s: &[WaitId]| {
            if s.is_empty() {
                "no locks".to_string()
            } else {
                s.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("+")
            }
        };
        let mut violations = Vec::new();
        for o in self.objects.iter().flatten().filter(|o| o.two_locked) {
            let Some((culprit, culprit_held)) = &o.culprit else {
                continue;
            };
            let object = obj_name(end.labels, o.obj);
            let witness = o.witness;
            violations.push(
                Violation::new(
                    ViolationKind::InconsistentLockSet,
                    Some(culprit.time),
                    format!(
                        "{object} is lock-disciplined (two or more threads access it under locks) \
                         but no common lock protects every access: #{} ({}) held {} while the \
                         access by tid{} at #{} ({}) held {}",
                        witness.idx,
                        witness.time,
                        held_list(&o.witness_held),
                        culprit.tid.index(),
                        culprit.idx,
                        culprit.time,
                        held_list(culprit_held),
                    ),
                )
                .with_object(object)
                .with_site(format!("#{}->#{}", witness.idx, culprit.idx)),
            );
        }
        violations
    }
}

/// Eraser-style lock-set checking over plain `SimShared` accesses.
///
/// An object participates once at least two distinct threads have
/// accessed it while holding at least one lock — the signature of
/// intended lock discipline. For participating objects the intersection
/// of lock sets over **all** accesses must stay non-empty; an empty
/// intersection is reported with two witness sites whose lock sets are
/// disjoint (or whichever access emptied the running intersection).
///
/// Objects synchronized by other means (queues, signals, joins — the
/// message-passing style most workloads use) never enter the check, so
/// it adds no false positives on top of the race detector.
pub fn check_locksets(trace: &KernelTrace) -> Vec<Violation> {
    Analyses::LOCK_SETS.replay(trace)
}

// ----------------------------------------------------------------------
// Policy lint: placements must honour the current speed ranking
// ----------------------------------------------------------------------

/// One core's replayed scheduler state.
#[derive(Debug, Default)]
pub(crate) struct CoreState {
    pub(crate) running: Option<ThreadId>,
    pub(crate) queue: Vec<ThreadId>,
}

/// Replayed scheduler state — current speeds, hotplug, run queues and
/// affinities — shared by the stale-ranking lint and the fast-core-idle
/// invariant.
pub(crate) struct SchedState {
    pub(crate) speeds: Vec<Speed>,
    pub(crate) online: Vec<bool>,
    pub(crate) cores: Vec<CoreState>,
    /// Each thread's affinity, once known.
    affinity: Vec<Option<CoreMask>>,
}

pub(crate) fn remove(v: &mut Vec<ThreadId>, tid: ThreadId) {
    if let Some(pos) = v.iter().position(|&t| t == tid) {
        v.remove(pos);
    }
}

impl SchedState {
    pub(crate) fn new(machine: &MachineSpec) -> Self {
        let speeds = machine.speeds().to_vec();
        SchedState {
            online: vec![true; speeds.len()],
            cores: speeds.iter().map(|_| CoreState::default()).collect(),
            speeds,
            affinity: Vec::new(),
        }
    }

    /// `tid`'s affinity, once known.
    pub(crate) fn affinity(&self, tid: ThreadId) -> Option<CoreMask> {
        self.affinity.get(tid.index()).copied().flatten()
    }

    /// Applies one event's effect on the scheduler state.
    pub(crate) fn apply(&mut self, event: &TraceEvent) {
        let cores = &mut self.cores;
        match *event {
            TraceEvent::Spawn {
                tid,
                core,
                affinity: mask,
                ..
            } => {
                *slot(&mut self.affinity, tid.index()) = Some(mask);
                cores[core.0].queue.push(tid);
            }
            TraceEvent::Dispatch { tid, core } => {
                remove(&mut cores[core.0].queue, tid);
                cores[core.0].running = Some(tid);
            }
            TraceEvent::Preempt { tid, core, .. } => {
                if cores[core.0].running == Some(tid) {
                    cores[core.0].running = None;
                }
                cores[core.0].queue.push(tid);
            }
            TraceEvent::Steal { tid, from, to } => {
                remove(&mut cores[from.0].queue, tid);
                cores[to.0].queue.push(tid);
            }
            TraceEvent::Wakeup { tid, core, .. } => {
                cores[core.0].queue.push(tid);
            }
            TraceEvent::Block { tid, .. }
            | TraceEvent::Sleep { tid }
            | TraceEvent::Done { tid } => {
                for c in cores.iter_mut() {
                    if c.running == Some(tid) {
                        c.running = None;
                    }
                }
            }
            TraceEvent::SetAffinity { tid, affinity: m }
            | TraceEvent::AffinityOverride { tid, affinity: m } => {
                // An override may precede the Spawn it rescued (spawn
                // placement widens before tracing); Spawn then records
                // the same post-widening mask, so overwriting is safe
                // in either order.
                *slot(&mut self.affinity, tid.index()) = Some(m);
            }
            TraceEvent::SpeedChange { core, speed } => {
                self.speeds[core.0] = speed;
            }
            TraceEvent::CoreOffline { core } => {
                self.online[core.0] = false;
            }
            TraceEvent::CoreOnline { core } => {
                self.online[core.0] = true;
            }
            // The kill is followed by a Done record that clears any
            // running slot; here we only unpark a killed runnable.
            TraceEvent::ThreadKilled { tid } => {
                for c in cores.iter_mut() {
                    remove(&mut c.queue, tid);
                }
            }
            _ => {}
        }
    }
}

/// The stale-ranking placement lint (see [`check_stale_ranking`]); only
/// built for asymmetry-aware kernels.
pub(crate) struct StaleRanking {
    sched: SchedState,
    /// The latest `SpeedChange` record.
    rank_site: Option<usize>,
    violations: Vec<Violation>,
}

impl StaleRanking {
    fn new(machine: &MachineSpec) -> Self {
        StaleRanking {
            sched: SchedState::new(machine),
            rank_site: None,
            violations: Vec::new(),
        }
    }

    /// Lints one placement of `tid` onto `chosen` against the fastest
    /// idle, online, `mask`-eligible core (ties to the lowest index).
    fn lint_placement(
        &mut self,
        i: usize,
        time: SimTime,
        (tid, chosen, mask, what): (ThreadId, CoreId, CoreMask, &str),
    ) {
        let (speeds, cores) = (&self.sched.speeds, &self.sched.cores);
        let mut best: Option<usize> = None;
        for (c, core) in cores.iter().enumerate() {
            let eligible = self.sched.online[c]
                && mask.contains(CoreId(c))
                && core.running.is_none()
                && core.queue.is_empty();
            if eligible && best.is_none_or(|b| speeds[c] > speeds[b]) {
                best = Some(c);
            }
        }
        let Some(best) = best.filter(|&b| b != chosen.0) else {
            return;
        };
        let (rank_desc, site) = match self.rank_site {
            Some(s) => (
                format!("the ranking in force since SpeedChange at #{s}"),
                format!("#{s}->#{i}"),
            ),
            None => (
                "the machine's initial speed ranking".to_string(),
                format!("#{i}"),
            ),
        };
        self.violations.push(
            Violation::new(
                ViolationKind::StaleRanking,
                Some(time),
                format!(
                    "{tid} {what} core{} (speed {:.3}) at #{i} while idle eligible \
                     core{best} (speed {:.3}) was faster under {rank_desc} — the \
                     placement ignored the current speed ranking",
                    chosen.0,
                    speeds[chosen.0].factor(),
                    speeds[best].factor(),
                ),
            )
            .with_object(format!("core{}", chosen.0))
            .with_site(site),
        );
    }
}

impl Pass for StaleRanking {
    fn on_event(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        // Lint placements before applying their state effect: the
        // eligibility snapshot is the instant *before* the thread lands.
        let placement = match *event {
            TraceEvent::Spawn {
                tid,
                core,
                affinity: mask,
                ..
            } => Some((tid, core, mask, "spawned onto")),
            TraceEvent::Wakeup { tid, core, .. } => self
                .sched
                .affinity(tid)
                .map(|mask| (tid, core, mask, "woken onto")),
            TraceEvent::SpeedChange { .. } => {
                self.rank_site = Some(i);
                None
            }
            _ => None,
        };
        if let Some(placement) = placement {
            self.lint_placement(i, time, placement);
        }
        self.sched.apply(event);
    }

    fn finish(self: Box<Self>, _: &End<'_>) -> Vec<Violation> {
        self.violations
    }
}

/// Lints every placement decision (spawn and wakeup) of an
/// asymmetry-aware trace against the speed ranking in force at that
/// instant: when any idle, online, affinity-eligible core exists, the
/// kernel's placement contract is "fastest such core, ties to the lowest
/// index". A placement that lands anywhere else used a stale (or plain
/// wrong) ranking — the §3.1.1 bug class where a fault re-ranks the
/// cores and a dispatch keeps consulting the old table. The report cites
/// both the ranking site (the latest `SpeedChange`, or the initial
/// machine shape) and the offending placement.
pub fn check_stale_ranking(trace: &KernelTrace) -> Vec<Violation> {
    Analyses::STALE_RANKING.replay(trace)
}

// ----------------------------------------------------------------------
// Policy lint: re-ranking hygiene (staleness bound + thrash)
// ----------------------------------------------------------------------

/// How long a ranking-reordering `SpeedChange` may go unconfirmed by a
/// `Rerank` record for the same core before the ranking counts as stale.
/// The kernel's contract is to announce the re-rank in the same instant
/// it applies the speed, so one millisecond is generous.
pub const RERANK_STALENESS_BOUND: SimDuration = SimDuration::from_millis(1);

/// The sliding window over which [`RERANK_THRASH_LIMIT`] applies.
pub const RERANK_THRASH_WINDOW: SimDuration = SimDuration::from_millis(1);

/// More `Rerank` records than this inside one
/// [`RERANK_THRASH_WINDOW`] is churn: the environment hysteresis
/// (confirmation ticks plus a per-core minimum apply interval) keeps
/// legitimate traces far below it even when every core re-targets in
/// the same tick.
pub const RERANK_THRASH_LIMIT: usize = 8;

/// Fills `order` with the online cores, fastest first (ties to the
/// lowest index).
fn rank_into(order: &mut Vec<usize>, speeds: &[Speed], online: &[bool]) {
    order.clear();
    order.extend((0..speeds.len()).filter(|&c| online[c]));
    order.sort_by(|&a, &b| speeds[b].cmp(&speeds[a]).then(a.cmp(&b)));
}

/// The re-ranking hygiene lint (see [`check_rerank_hygiene`]).
pub(crate) struct RerankHygiene {
    speeds: Vec<Speed>,
    online: Vec<bool>,
    /// The online-core ranking before and after a speed change (reused
    /// buffers).
    before: Vec<usize>,
    after: Vec<usize>,
    /// Unconfirmed ranking reorders: (record index, core, time).
    pending: Vec<(usize, CoreId, SimTime)>,
    /// Recent rerank sites for the thrash window: (time, record index).
    recent: VecDeque<(SimTime, usize)>,
    thrash_reported: bool,
    violations: Vec<Violation>,
}

impl RerankHygiene {
    fn new(machine: &MachineSpec) -> Self {
        let speeds = machine.speeds().to_vec();
        RerankHygiene {
            online: vec![true; speeds.len()],
            speeds,
            before: Vec::new(),
            after: Vec::new(),
            pending: Vec::new(),
            recent: VecDeque::new(),
            thrash_reported: false,
            violations: Vec::new(),
        }
    }

    fn stale(&mut self, (idx, core, time): (usize, CoreId, SimTime)) {
        self.violations.push(
            Violation::new(
                ViolationKind::StaleRerank,
                Some(time),
                format!(
                    "SpeedChange at #{idx} reordered the online-core speed ranking but no \
                     Rerank record for core{} followed within {}",
                    core.0, RERANK_STALENESS_BOUND
                ),
            )
            .with_object(format!("core{}", core.0))
            .with_site(format!("#{idx}")),
        );
    }
}

impl Pass for RerankHygiene {
    fn on_event(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        // Expire overdue confirmations before applying this record.
        while let Some(&first) = self.pending.first() {
            if time.duration_since(first.2) > RERANK_STALENESS_BOUND {
                self.stale(first);
                self.pending.remove(0);
            } else {
                break;
            }
        }
        match *event {
            TraceEvent::SpeedChange { core, speed } => {
                rank_into(&mut self.before, &self.speeds, &self.online);
                self.speeds[core.0] = speed;
                rank_into(&mut self.after, &self.speeds, &self.online);
                if self.after != self.before {
                    self.pending.push((i, core, time));
                }
            }
            TraceEvent::Rerank { core } => {
                if let Some(pos) = self.pending.iter().position(|&(_, c, _)| c == core) {
                    self.pending.remove(pos);
                }
                while let Some(&(t, _)) = self.recent.front() {
                    if time.duration_since(t) > RERANK_THRASH_WINDOW {
                        self.recent.pop_front();
                    } else {
                        break;
                    }
                }
                self.recent.push_back((time, i));
                if self.recent.len() > RERANK_THRASH_LIMIT && !self.thrash_reported {
                    self.thrash_reported = true;
                    let (start_t, start_i) = *self.recent.front().expect("window not empty");
                    self.violations.push(
                        Violation::new(
                            ViolationKind::RerankThrash,
                            Some(time),
                            format!(
                                "{} re-ranks inside one {} window (since #{start_i} at \
                                 {start_t}): hysteresis failed to damp the churn",
                                self.recent.len(),
                                RERANK_THRASH_WINDOW
                            ),
                        )
                        .with_site(format!("#{start_i}->#{i}")),
                    );
                }
            }
            TraceEvent::CoreOffline { core } => {
                self.online[core.0] = false;
            }
            TraceEvent::CoreOnline { core } => {
                self.online[core.0] = true;
            }
            _ => {}
        }
    }

    fn finish(mut self: Box<Self>, _: &End<'_>) -> Vec<Violation> {
        // A reorder the trace never confirmed is stale no matter when the
        // run ended: the kernel announces re-ranks in the same instant.
        for pending in std::mem::take(&mut self.pending) {
            self.stale(pending);
        }
        self.violations
    }
}

/// Lints the re-ranking contract of a trace with dynamic speeds:
///
/// 1. **Staleness** — every `SpeedChange` that reorders the online-core
///    speed ranking must be confirmed by a `Rerank` record for that core
///    within [`RERANK_STALENESS_BOUND`]; a reorder the kernel never
///    announced means downstream consumers (balancers, observers) kept
///    acting on a ranking known to be stale
///    ([`ViolationKind::StaleRerank`]).
/// 2. **Thrash** — more than [`RERANK_THRASH_LIMIT`] `Rerank` records
///    within any [`RERANK_THRASH_WINDOW`] is migration-churn the
///    hysteresis was supposed to damp ([`ViolationKind::RerankThrash`]).
///
/// Applies to every policy: the trace contract is the kernel's, not the
/// scheduler's. Hotplug reorders (a core leaving or joining the ranking)
/// are not speed re-ranks and carry no confirmation obligation.
pub fn check_rerank_hygiene(trace: &KernelTrace) -> Vec<Violation> {
    Analyses::RERANK_HYGIENE.replay(trace)
}

// ----------------------------------------------------------------------
// Policy lint: fair-share schedulers must not starve a runnable thread
// ----------------------------------------------------------------------

/// How long a runnable thread may sit continuously queued before the
/// fairness lint considers it starved (provided enough other dispatches
/// bypassed it — see [`STARVATION_MIN_BYPASSES`]).
pub const STARVATION_BOUND: SimDuration = SimDuration::from_millis(200);

/// How many times other threads must be dispatched on the waiting
/// thread's core, while it sits queued, before the wait counts as
/// starvation rather than a briefly-overloaded queue.
pub const STARVATION_MIN_BYPASSES: usize = 64;

/// One queued thread's wait.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    core: CoreId,
    since: SimTime,
    since_idx: usize,
    /// Dispatches that bypassed it on cores it was stolen away from.
    bypassed: usize,
    /// Its current core's dispatch count when it arrived there.
    mark: usize,
}

/// The fair-share starvation lint (see [`check_starvation`]); only built
/// for [`PolicyKind::VruntimeFair`] kernels.
#[derive(Default)]
pub(crate) struct Starvation {
    /// Indexed by [`ThreadId`]; `Some` while the thread sits queued.
    queued: Vec<Option<Waiting>>,
    /// Dispatches so far, per core: a waiting thread's bypass count is
    /// how far its core's count moved while it waited there.
    dispatches: Vec<usize>,
    violations: Vec<Violation>,
}

impl Starvation {
    fn dispatched_on(&mut self, core: CoreId) -> usize {
        *slot(&mut self.dispatches, core.0)
    }

    fn bypasses(&mut self, w: &Waiting) -> usize {
        w.bypassed + self.dispatched_on(w.core) - w.mark
    }

    fn flag(&mut self, tid: usize, w: &Waiting, end: SimTime, end_idx: Option<usize>) {
        let waited = end.duration_since(w.since);
        let bypasses = self.bypasses(w);
        if waited > STARVATION_BOUND && bypasses >= STARVATION_MIN_BYPASSES {
            let site = match end_idx {
                Some(idx) => format!("#{}->#{idx}", w.since_idx),
                None => format!("#{}->end", w.since_idx),
            };
            self.violations.push(
                Violation::new(
                    ViolationKind::Starvation,
                    Some(end),
                    format!(
                        "thread {tid} sat queued on core {} for {waited} (bound \
                         {STARVATION_BOUND}) while {bypasses} other dispatches ran there",
                        w.core.0,
                    ),
                )
                .with_object(format!("thread{tid}"))
                .with_site(site),
            );
        }
    }
}

impl Pass for Starvation {
    fn on_event(&mut self, i: usize, time: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::Spawn { tid, core, .. }
            | TraceEvent::Wakeup { tid, core, .. }
            | TraceEvent::Preempt { tid, core, .. } => {
                let mark = self.dispatched_on(core);
                *slot(&mut self.queued, tid.index()) = Some(Waiting {
                    core,
                    since: time,
                    since_idx: i,
                    bypassed: 0,
                    mark,
                });
            }
            TraceEvent::Steal { tid, to, .. } => {
                // A migration keeps the wait clock running: the thread
                // is still runnable-and-not-running, just elsewhere.
                if let Some(mut w) = self.queued.get(tid.index()).copied().flatten() {
                    w.bypassed = self.bypasses(&w);
                    w.core = to;
                    w.mark = self.dispatched_on(to);
                    self.queued[tid.index()] = Some(w);
                }
            }
            TraceEvent::Dispatch { tid, core } => {
                // Its own dispatch ends the wait; every other thread
                // queued on `core` is bypassed once more.
                if let Some(w) = self.queued.get_mut(tid.index()).and_then(Option::take) {
                    self.flag(tid.index(), &w, time, Some(i));
                }
                *slot(&mut self.dispatches, core.0) += 1;
            }
            TraceEvent::Done { tid } | TraceEvent::ThreadKilled { tid } => {
                if let Some(w) = self.queued.get_mut(tid.index()) {
                    *w = None;
                }
            }
            _ => {}
        }
    }

    fn finish(mut self: Box<Self>, end: &End<'_>) -> Vec<Violation> {
        // Threads still queued when the trace ends starved with no
        // terminating dispatch to cite.
        if let Some(end) = end.last {
            for tid in 0..self.queued.len() {
                if let Some(w) = self.queued[tid] {
                    self.flag(tid, &w, end, None);
                }
            }
        }
        self.violations
    }
}

/// Lints fair-share (vruntime) traces for starvation: a thread that
/// stays continuously queued for more than [`STARVATION_BOUND`] while
/// the scheduler dispatches other threads on its core at least
/// [`STARVATION_MIN_BYPASSES`] times has been starved — under a
/// lowest-progress-first discipline a waiting thread's progress never
/// advances, so it must win the queue long before either limit.
/// Only applies to [`PolicyKind::VruntimeFair`] traces; priority and
/// FIFO policies legitimately order threads by other criteria.
pub fn check_starvation(trace: &KernelTrace) -> Vec<Violation> {
    Analyses::STARVATION.replay(trace)
}

/// The full happens-before suite over one trace: vector-clock data
/// races, lock-set violations, and the scheduler-policy lints
/// (stale-ranking placements, re-ranking hygiene, and fair-share
/// starvation), in canonical (kind, object, site) order with duplicates
/// removed. One decode of the trace feeds all five passes.
pub fn check_concurrency(trace: &KernelTrace) -> Vec<Violation> {
    Analyses::CONCURRENCY.replay(trace)
}
