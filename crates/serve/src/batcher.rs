//! The micro-batcher: turns single-sample `predict` calls into the
//! column-major [`FeatureMatrix`] blocks where the blocked /
//! QuickScorer / VM engines earn their throughput.
//!
//! Shape of the machinery (all `std`, no runtime dependency):
//!
//! * callers hold a cloneable [`BatchHandle`] whose blocking
//!   [`predict`](BatchHandle::predict) enqueues one feature row and
//!   waits on a oneshot reply channel;
//! * a **collector** thread gathers queued rows into a batch, closing
//!   it when either `max_batch` rows are in hand or the oldest row has
//!   lingered past the deadline — the classic micro-batching policy:
//!   `linger` bounds added latency, `max_batch` bounds batch size;
//! * a **worker pool** scores closed batches through one shared
//!   [`Predictor`] (any engine of the registry) and fans the per-sample
//!   classes back to their callers;
//! * the request queue is **bounded** ([`BatchPolicy::queue_depth`]);
//!   when scoring falls behind, callers block in `predict` instead of
//!   growing an unbounded backlog — backpressure, not collapse;
//! * [`shutdown`](Batcher::shutdown) is graceful: every request already
//!   queued is still batched, scored and answered before the threads
//!   exit; requests arriving after shutdown fail with
//!   [`ServeError::ShuttingDown`].
//!
//! Rows with the wrong feature arity are rejected in the caller's
//! thread before they touch the queue, so one malformed client cannot
//! poison a batch shared with well-formed requests.

use crate::metrics::{MetricsSnapshot, ServeMetrics};
use flint_data::FeatureMatrix;
use flint_exec::Predictor;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batching policy knobs. All counts are clamped to at least 1
/// when used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most samples per batch; a batch is dispatched as soon as it is
    /// full.
    pub max_batch: usize,
    /// Longest a partial batch waits for more rows before being
    /// dispatched anyway (the latency bound of the policy).
    pub linger: Duration,
    /// Bounded request-queue depth; callers block once it is full.
    pub queue_depth: usize,
    /// Scoring worker threads.
    pub workers: usize,
}

impl Default for BatchPolicy {
    /// 64-row batches, 200 µs linger, 1024-deep queue, one worker.
    fn default() -> Self {
        Self {
            max_batch: 64,
            linger: Duration::from_micros(200),
            queue_depth: 1024,
            workers: 1,
        }
    }
}

impl BatchPolicy {
    /// Sets the batch-size cap.
    #[must_use]
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Sets the linger deadline.
    #[must_use]
    pub fn linger(mut self, d: Duration) -> Self {
        self.linger = d;
        self
    }

    /// Sets the bounded queue depth.
    #[must_use]
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }
}

/// One answered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The majority-vote class, bit-identical to
    /// `RandomForest::predict_majority` on the same row.
    pub class: u32,
    /// How many samples shared the batch this row was scored in
    /// (observability: 1 = the linger deadline fired alone,
    /// `max_batch` = a full batch).
    pub batch_fill: usize,
}

/// One answered `votes:` request: the per-class vote histogram a
/// forest shard reports upward for distributed merge, plus the same
/// batch-fill observability as [`Prediction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VotesReply {
    /// Per-class vote counts, summing to the engine's tree count.
    /// `majority_vote(&votes)` equals the [`Prediction::class`] the
    /// same row would have received.
    pub votes: Vec<u32>,
    /// How many samples shared the batch this row was scored in.
    pub batch_fill: usize,
}

/// Why a request was not answered.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The feature row does not match the model's arity. Rejected
    /// before queueing; the batcher keeps serving.
    WrongArity {
        /// The model's feature count.
        expected: usize,
        /// The rejected row's length.
        got: usize,
    },
    /// The batcher is shutting down (or has shut down); the request was
    /// not scored.
    ShuttingDown,
    /// The bounded request queue is full and the caller asked not to
    /// block ([`BatchHandle::try_submit`]): admission control shed this
    /// request instead of growing a backlog.
    Busy,
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::WrongArity { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::Busy => write!(f, "request queue full"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How a scored request finds its way back to whoever asked: a oneshot
/// callback. The blocking [`BatchHandle::predict`] wraps a channel
/// send; [`BatchHandle::try_submit`] callers pass their own. Class and
/// votes requests share one queue and one batch, so a shard serving
/// `votes:` traffic batches exactly like a node serving predictions.
enum Reply {
    /// Answer with the majority-vote class.
    Class(Box<dyn FnOnce(Prediction) + Send>),
    /// Answer with the per-class vote histogram.
    Votes(Box<dyn FnOnce(VotesReply) + Send>),
}

/// One queued request: the gathered row, its enqueue time (for the
/// latency metrics) and the caller's oneshot reply callback.
struct Request {
    features: Vec<f32>,
    enqueued: Instant,
    reply: Reply,
}

/// Queue messages: requests, or the shutdown sentinel `Batcher` sends.
enum Msg {
    Predict(Request),
    Shutdown,
}

/// A closed batch on its way to a scoring worker: concatenated
/// row-major features plus one reply slot per row.
struct Batch {
    rows: Vec<f32>,
    replies: Vec<(Reply, Instant)>,
}

/// The caller-side entry point: cheap to clone, safe to share across
/// connection threads.
#[derive(Debug, Clone)]
pub struct BatchHandle {
    tx: SyncSender<Msg>,
    n_features: usize,
    engine_name: &'static str,
    metrics: Arc<ServeMetrics>,
}

impl BatchHandle {
    /// Scores one feature row, blocking until its batch has been
    /// dispatched and scored.
    ///
    /// # Errors
    ///
    /// [`ServeError::WrongArity`] if the row length differs from the
    /// model's feature count (checked before queueing);
    /// [`ServeError::ShuttingDown`] if the batcher stopped before this
    /// request could be scored.
    pub fn predict(&self, features: &[f32]) -> Result<Prediction, ServeError> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.check_arity(features)?;
        let request = Request {
            features: features.to_vec(),
            enqueued: Instant::now(),
            reply: Reply::Class(Box::new(move |prediction| {
                let _ = reply_tx.send(prediction);
            })),
        };
        self.tx
            .send(Msg::Predict(request))
            .map_err(|_| ServeError::ShuttingDown)?;
        self.metrics.record_request();
        // The reply channel is dropped unanswered only when the batcher
        // tears down before this batch is scored.
        reply_rx.recv().map_err(|_| ServeError::ShuttingDown)
    }

    /// Scores one feature row and blocks for its per-class vote
    /// histogram — the `votes:` sibling of [`predict`](Self::predict),
    /// used by the thread-per-connection front end and the stdin loop.
    ///
    /// # Errors
    ///
    /// Same contract as [`predict`](Self::predict).
    pub fn predict_votes(&self, features: &[f32]) -> Result<VotesReply, ServeError> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.check_arity(features)?;
        let request = Request {
            features: features.to_vec(),
            enqueued: Instant::now(),
            reply: Reply::Votes(Box::new(move |votes| {
                let _ = reply_tx.send(votes);
            })),
        };
        self.tx
            .send(Msg::Predict(request))
            .map_err(|_| ServeError::ShuttingDown)?;
        self.metrics.record_request();
        reply_rx.recv().map_err(|_| ServeError::ShuttingDown)
    }

    /// Enqueues one feature row **without blocking**: `on_done` fires
    /// from a scoring worker once the row's batch is scored. For
    /// callers that must never sleep on a full queue: a full queue
    /// sheds instead of blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::WrongArity`] on a bad row (checked before
    /// queueing), [`ServeError::Busy`] when the bounded queue is full
    /// (counted as shed in the metrics), [`ServeError::ShuttingDown`]
    /// when the batcher has stopped. On every error `on_done` is
    /// dropped unfired — the caller still owns the response.
    pub fn try_submit(
        &self,
        features: &[f32],
        on_done: impl FnOnce(Prediction) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.check_arity(features)?;
        let request = Request {
            features: features.to_vec(),
            enqueued: Instant::now(),
            reply: Reply::Class(Box::new(on_done)),
        };
        match self.tx.try_send(Msg::Predict(request)) {
            Ok(()) => {
                self.metrics.record_request();
                Ok(())
            }
            Err(mpsc::TrySendError::Full(_)) => {
                self.metrics.record_shed();
                Err(ServeError::Busy)
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    fn check_arity(&self, features: &[f32]) -> Result<(), ServeError> {
        if features.len() != self.n_features {
            self.metrics.record_rejected();
            return Err(ServeError::WrongArity {
                expected: self.n_features,
                got: features.len(),
            });
        }
        Ok(())
    }

    /// The registry name of the engine answering requests.
    pub fn engine_name(&self) -> &'static str {
        self.engine_name
    }

    /// Feature arity accepted by [`predict`](Self::predict).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// A point-in-time reading of the serving counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live counters behind [`metrics`](Self::metrics).
    pub(crate) fn shared_metrics(&self) -> &ServeMetrics {
        &self.metrics
    }
}

/// The running micro-batcher: owns the collector and worker threads and
/// shuts them down gracefully on [`shutdown`](Self::shutdown) (or on
/// drop).
#[derive(Debug)]
pub struct Batcher {
    tx: SyncSender<Msg>,
    n_features: usize,
    engine_name: &'static str,
    metrics: Arc<ServeMetrics>,
    collector: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the collector and `policy.workers` scoring threads over
    /// `engine` — the only coupling to the rest of the workspace is the
    /// boxed [`Predictor`] from the engine registry.
    pub fn start(engine: Box<dyn Predictor>, policy: BatchPolicy) -> Self {
        let engine: Arc<dyn Predictor> = Arc::from(engine);
        let n_features = engine.n_features();
        let engine_name = engine.name();
        let metrics = Arc::new(ServeMetrics::default());
        let max_batch = policy.max_batch.max(1);
        let n_workers = policy.workers.max(1);

        let (tx, rx) = mpsc::sync_channel::<Msg>(policy.queue_depth.max(1));
        // A shallow hand-off channel: closed batches should start
        // scoring immediately, not pile up ahead of idle workers.
        let (batch_tx, batch_rx) = mpsc::sync_channel::<Batch>(n_workers);
        let batch_rx = Arc::new(Mutex::new(batch_rx));

        let workers = (0..n_workers)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let batch_rx = Arc::clone(&batch_rx);
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || worker_loop(&*engine, &batch_rx, &metrics))
            })
            .collect();
        let collector = std::thread::spawn(move || {
            collect_loop(&rx, &batch_tx, max_batch, policy.linger, n_features);
        });

        Self {
            tx,
            n_features,
            engine_name,
            metrics,
            collector: Some(collector),
            workers,
        }
    }

    /// A cloneable caller-side handle.
    pub fn handle(&self) -> BatchHandle {
        BatchHandle {
            tx: self.tx.clone(),
            n_features: self.n_features,
            engine_name: self.engine_name,
            metrics: Arc::clone(&self.metrics),
        }
    }

    /// The registry name of the engine answering requests.
    pub fn engine_name(&self) -> &'static str {
        self.engine_name
    }

    /// Feature arity this batcher accepts.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// A point-in-time reading of the serving counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live counters themselves, for the front ends that record
    /// connection gauges and buffer high-water marks.
    pub(crate) fn metrics_shared(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Graceful shutdown: every already-queued request is still scored
    /// and answered, then the collector and workers exit and are
    /// joined. Requests sent through surviving handles afterwards fail
    /// with [`ServeError::ShuttingDown`].
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop();
        self.metrics.snapshot()
    }

    fn stop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The collector: batches queued rows under the max-batch / linger
/// policy until shutdown, then drains whatever is still queued.
fn collect_loop(
    rx: &Receiver<Msg>,
    batch_tx: &SyncSender<Batch>,
    max_batch: usize,
    linger: Duration,
    n_features: usize,
) {
    loop {
        // Block for the first row of the next batch; its arrival starts
        // the linger clock.
        let first = match rx.recv() {
            Ok(Msg::Predict(request)) => request,
            Ok(Msg::Shutdown) | Err(_) => break,
        };
        let deadline = Instant::now() + linger;
        let mut batch = new_batch(max_batch, n_features);
        push_row(&mut batch, first);
        let mut stop = false;
        while batch.replies.len() < max_batch {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match rx.recv_timeout(left) {
                Ok(Msg::Predict(request)) => push_row(&mut batch, request),
                Ok(Msg::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                    stop = true;
                    break;
                }
                Err(RecvTimeoutError::Timeout) => break,
            }
        }
        if batch_tx.send(batch).is_err() || stop {
            break;
        }
    }
    // Shutdown drain: everything already in the queue still gets
    // batched and scored before the workers are released.
    let mut batch = new_batch(max_batch, n_features);
    while let Ok(msg) = rx.try_recv() {
        if let Msg::Predict(request) = msg {
            push_row(&mut batch, request);
            if batch.replies.len() == max_batch {
                let full = std::mem::replace(&mut batch, new_batch(max_batch, n_features));
                if batch_tx.send(full).is_err() {
                    return;
                }
            }
        }
    }
    if !batch.replies.is_empty() {
        let _ = batch_tx.send(batch);
    }
    // `batch_tx` drops here; workers drain the hand-off channel and
    // exit.
}

fn new_batch(max_batch: usize, n_features: usize) -> Batch {
    Batch {
        rows: Vec::with_capacity(max_batch * n_features),
        replies: Vec::with_capacity(max_batch),
    }
}

fn push_row(batch: &mut Batch, request: Request) {
    batch.rows.extend_from_slice(&request.features);
    batch.replies.push((request.reply, request.enqueued));
}

/// Scores the class rows of a batch, and only those, through one
/// [`Predictor::predict_matrix`]: `rows` is row-major, `wants_votes[i]`
/// marks row `i` as a `votes:` request, and the result holds one class
/// per class row in row order. A batch of only `votes:` rows (a router
/// shard's steady state) skips the matrix pass. Both the batcher's
/// workers and the event loop's inline scorer go through here, so a
/// mixed batch costs the same on every front end.
pub(crate) fn score_class_rows(
    engine: &dyn Predictor,
    rows: &[f32],
    wants_votes: &[bool],
) -> Vec<u32> {
    let n_features = engine.n_features();
    let n_class = wants_votes.iter().filter(|&&votes| !votes).count();
    if n_class == 0 {
        return Vec::new();
    }
    let matrix = if n_class == wants_votes.len() {
        FeatureMatrix::from_row_major(n_class, n_features, rows)
    } else {
        let class_rows: Vec<f32> = (0..wants_votes.len())
            .filter(|&i| !wants_votes[i])
            .flat_map(|i| &rows[i * n_features..(i + 1) * n_features])
            .copied()
            .collect();
        FeatureMatrix::from_row_major(n_class, n_features, &class_rows)
    };
    engine.predict_matrix(&matrix)
}

/// One scoring worker: pulls closed batches, scores them through the
/// shared engine under the engine's own batch options, and fans the
/// classes back out.
fn worker_loop(engine: &dyn Predictor, batch_rx: &Mutex<Receiver<Batch>>, metrics: &ServeMetrics) {
    loop {
        // Standard shared-receiver pool: hold the lock only while
        // waiting for the next batch, score after releasing it so the
        // other workers can pull in parallel.
        let batch = {
            let rx = batch_rx.lock().expect("batch queue lock");
            match rx.recv() {
                Ok(batch) => batch,
                Err(_) => break,
            }
        };
        let fill = batch.replies.len();
        let n_features = engine.n_features();
        let wants_votes: Vec<bool> = batch
            .replies
            .iter()
            .map(|(reply, _)| matches!(reply, Reply::Votes(_)))
            .collect();
        let mut classes = score_class_rows(engine, &batch.rows, &wants_votes).into_iter();
        metrics.record_batch(fill);
        for (i, (reply, enqueued)) in batch.replies.into_iter().enumerate() {
            metrics.record_latency(enqueued.elapsed());
            // The callback decides what "answered" means: a channel
            // send for blocking callers (a dropped receiver is a caller
            // that gave up — harmless), whatever the caller chose for
            // `try_submit`.
            match reply {
                Reply::Class(done) => done(Prediction {
                    class: classes.next().expect("one class per class row"),
                    batch_fill: fill,
                }),
                Reply::Votes(done) => done(VotesReply {
                    votes: engine.predict_votes(&batch.rows[i * n_features..(i + 1) * n_features]),
                    batch_fill: fill,
                }),
            }
        }
    }
}
