//! In-memory span recording for the traced run.
//!
//! The benchmark records spans around its own calls into the program:
//! set-up, each `Simulation::step`, each operation's `run` (through an
//! [`Operation`] wrapper installed with `scheduler_mut`), and each
//! checkpoint write or restore. Spans stay in memory and are written
//! out when the run ends. Tracing inside the program is out of scope.

use bdm_metrics::json::JsonValue;
use bdm_sim::operation::{BehaviorOp, BoundSpaceOp, DiffusionOp, MechanicalOp};
use bdm_sim::{OpContext, OpRecord, Operation, Profiler, ReorderOp, Scheduler, StepProfile};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran: `setup`, `step`, an operation name, `checkpoint`, `restore`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The simulation step the span belongs to.
    pub step: u64,
    /// Whether the span belongs to a timed step (not set-up or warm-up).
    pub timed: bool,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-operation aggregates over the timed steps: wall time of the
/// operation's `run` and the profiler records it returned.
#[derive(Default)]
pub struct OpTotals {
    /// Σ wall seconds of `run`.
    pub wall_s: f64,
    /// The records `run` returned, one step profile per run.
    pub profiler: Profiler,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open_step: Option<usize>,
    ops: BTreeMap<String, OpTotals>,
}

/// Shared handle to one run's spans; cloned into every operation wrapper.
#[derive(Clone)]
pub struct Tracer {
    epoch: Instant,
    state: Arc<Mutex<State>>,
}

impl Tracer {
    /// A tracer with no spans; time zero is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            state: Arc::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking step")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished top-level span.
    pub fn record(&self, name: &str, start: Instant, end: Instant, step: u64, timed: bool) {
        let span = Span {
            name: name.to_string(),
            parent: None,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            step,
            timed,
        };
        self.lock().spans.push(span);
    }

    /// Open the span of one `Simulation::step`; operation spans recorded
    /// until [`Tracer::close_step`] become its children, and count
    /// towards [`Tracer::with_op_totals`] when the step is timed.
    pub fn open_step(&self, step: u64, timed: bool) {
        let start = self.ns(Instant::now());
        let mut s = self.lock();
        s.spans.push(Span {
            name: "step".into(),
            parent: None,
            start_ns: start,
            end_ns: start,
            step,
            timed,
        });
        s.open_step = Some(s.spans.len() - 1);
    }

    /// Close the open step span.
    pub fn close_step(&self) {
        let end = self.ns(Instant::now());
        let mut s = self.lock();
        if let Some(i) = s.open_step.take() {
            s.spans[i].end_ns = end;
        }
    }

    /// Σ self seconds of the timed step spans, where a step's self time
    /// is its span minus its operation spans: the scheduler's own work.
    pub fn step_self_time(&self) -> f64 {
        let s = self.lock();
        let mut children = vec![0.0; s.spans.len()];
        for span in &s.spans {
            if let Some(p) = span.parent {
                children[p] += span.seconds();
            }
        }
        s.spans
            .iter()
            .enumerate()
            .filter(|(_, sp)| sp.name == "step" && sp.timed)
            .map(|(k, sp)| sp.seconds() - children[k])
            .sum()
    }

    fn finish_op(&self, name: &str, start: Instant, end: Instant, step: u64, records: &[OpRecord]) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut s = self.lock();
        let parent = s.open_step;
        let timed = parent.is_some_and(|p| s.spans[p].timed);
        s.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
            step,
            timed,
        });
        if timed {
            let totals = s.ops.entry(name.to_string()).or_default();
            totals.wall_s += (end - start).as_secs_f64();
            totals.profiler.push(StepProfile {
                records: records.to_vec(),
            });
        }
    }

    /// Run `f` over the per-operation aggregates of the timed steps.
    pub fn with_op_totals<T>(&self, f: impl FnOnce(&BTreeMap<String, OpTotals>) -> T) -> T {
        f(&self.lock().ops)
    }

    /// The spans as a JSON array (`name`, `parent`, `start_ns`,
    /// `end_ns`, `step`, `timed`).
    pub fn spans_json(&self) -> JsonValue {
        let spans = self.lock();
        JsonValue::Arr(
            spans
                .spans
                .iter()
                .map(|sp| {
                    let mut o = JsonValue::obj();
                    o.push("name", JsonValue::Str(sp.name.clone()));
                    o.push(
                        "parent",
                        sp.parent
                            .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                    );
                    o.push("start_ns", JsonValue::Num(sp.start_ns as f64));
                    o.push("end_ns", JsonValue::Num(sp.end_ns as f64));
                    o.push("step", JsonValue::Num(sp.step as f64));
                    o.push("timed", JsonValue::Bool(sp.timed));
                    o
                })
                .collect(),
        )
    }
}

/// Times one operation's `run` and hands its records to the tracer.
struct Traced<O> {
    op: O,
    tracer: Tracer,
}

impl<O: Operation> Operation for Traced<O> {
    fn name(&self) -> &str {
        self.op.name()
    }

    fn run(&mut self, ctx: &mut OpContext<'_>) -> Vec<OpRecord> {
        let step = ctx.step;
        let start = Instant::now();
        let records = self.op.run(ctx);
        let end = Instant::now();
        self.tracer
            .finish_op(self.op.name(), start, end, step, &records);
        records
    }
}

/// The default pipeline rebuilt from the public operation types, each
/// inside a [`Traced`] wrapper. The host reorder stays first and
/// disabled, as `Simulation::new` leaves it when reordering is off.
pub fn traced_scheduler(tracer: &Tracer, like: &Scheduler) -> Scheduler {
    let mut s = Scheduler::empty();
    s.set_mode(like.mode());
    let t = || tracer.clone();
    s.add(Box::new(Traced {
        op: ReorderOp::default(),
        tracer: t(),
    }));
    s.add(Box::new(Traced {
        op: BehaviorOp,
        tracer: t(),
    }));
    s.add(Box::new(Traced {
        op: MechanicalOp,
        tracer: t(),
    }));
    s.add(Box::new(Traced {
        op: BoundSpaceOp,
        tracer: t(),
    }));
    s.add(Box::new(Traced {
        op: DiffusionOp,
        tracer: t(),
    }));
    s.set_enabled("reorder", false);
    s
}
