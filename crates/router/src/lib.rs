//! # flint-router — the sharded fan-out/merge inference tier
//!
//! One forest, too hot for one box: split the ensemble into contiguous
//! tree spans ([`flint_forest::RandomForest::tree_span`], planned by
//! [`flint_forest::plan_spans`]), serve each span from its own
//! `flint serve` shard, and put this router in front. The router
//! speaks the exact same newline-delimited protocol as a single
//! server, so clients cannot tell the difference — except that each
//! request now costs one fan-out to every shard and a histogram merge
//! on the way back.
//!
//! **Why histograms, not classes.** Majority voting does not compose:
//! merging per-shard *winner classes* can disagree with the
//! single-node answer (two shards' runner-up can outvote both
//! winners). Merging per-shard *vote histograms* is exact — vote
//! counts are additive over disjoint tree spans — so the router asks
//! every shard for its `votes:` partial and applies the one canonical
//! tie-break ([`flint_forest::metrics::majority_vote`]) to the sum.
//! The distributed answer is bit-identical to
//! `RandomForest::predict_majority` on the whole forest, for every
//! engine in the registry.
//!
//! **Failure surface.** A merge over a partial quorum would be a
//! *wrong answer with a confident face*, so it never happens: if any
//! shard is down at fan-out time, sheds the request, or dies
//! mid-request, the client gets a visible `busy`/`error` line naming
//! the shard. The connection stays usable; retry when the shard map
//! heals.
//!
//! **Control plane**, on the same connection as data: `health` (role,
//! shard-up count, draining flag), `shardmap` (get) and
//! `shardmap set a:1,b:2` (replace; in-flight requests fail visibly),
//! `drain`/`undrain` (stop/resume admitting data requests while
//! control keeps answering), `stats` (the standard snapshot with a
//! `"shards"` block spliced in), `shutdown`. A shard map that names one
//! address twice would count that shard's votes twice, so `flint route
//! --shards` and `shardmap set` both refuse it; two addresses that
//! reach one server (`127.0.0.1` and `::1`, say) cannot be told apart
//! and are not refused.
//!
//! The data plane is one epoll thread running `flint-serve`'s event
//! loop core ([`flint_serve::run_loop`]) with the fan-out as its
//! [`flint_serve::Role`]: the core owns the clients (accept, framing,
//! ordered response slots, write backpressure, shutdown), and the
//! shard links run on its [`flint_serve::Socket`] with a
//! [`flint_serve::LineMachine`] framing shard responses. Links connect
//! without blocking the loop, so an unreachable shard costs visible
//! `busy` answers, never a frozen router. No new async machinery, no
//! second protocol.
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod router;

pub use router::{RouterServer, DEFAULT_ROUTER_ADDR};
