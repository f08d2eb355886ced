//! In-memory spans, recorded from the benchmark's side of each layer
//! boundary, and the self-time arithmetic over them.
//!
//! A [`Tracer`] lives for one traced replay on one thread. Spans nest by
//! call structure: [`Tracer::enter`] makes the innermost open span the
//! parent. Nothing is written until the replay has finished.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::IpAddr;
use std::rc::Rc;
use std::time::Instant;

use netsim::{Network, Node};

/// Index of a span in its tracer.
pub type SpanId = u32;

/// One recorded span: what ran, when, and which span caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<SpanId>,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one single-threaded replay.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<SpanId>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> SpanId {
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let id = spans.len() as SpanId;
        let parent = open.last().copied();
        open.push(id);
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
        });
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&self, id: SpanId) {
        let end = self.now_ns();
        let popped = self.open.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans close innermost-first");
        self.spans.borrow_mut()[id as usize].end_ns = end;
    }

    /// Close `id` under a different name — for calls whose class (cache
    /// hit, synthesized, forwarded) is only known once they return.
    pub fn exit_as(&self, id: SpanId, name: &'static str) {
        self.exit(id);
        self.spans.borrow_mut()[id as usize].name = name;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Take the recorded spans, in start order. Every span must be
    /// closed.
    pub fn finish(&self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "open spans at finish");
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once (interval union), so the result
/// never goes negative and a layer is never billed twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].start_ns);
    // Per parent: time covered so far and the right edge of that cover.
    let mut covered = vec![0u64; spans.len()];
    let mut edge = vec![0u64; spans.len()];
    for i in order {
        let Some(p) = spans[i].parent else { continue };
        let p = p as usize;
        let lo = spans[i].start_ns.max(spans[p].start_ns).max(edge[p]);
        let hi = spans[i].end_ns.min(spans[p].end_ns);
        if hi > lo {
            covered[p] += hi - lo;
            edge[p] = hi;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.duration_ns() - c)
        .collect()
}

/// Totals for every span of one name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, seconds.
    pub busy_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
    /// Median self time of one span, microseconds.
    pub median_self_us: f64,
}

/// Aggregate `spans` by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut per_name: BTreeMap<&'static str, (NameTotals, Vec<f64>)> = BTreeMap::new();
    for (span, &self_ns) in spans.iter().zip(&selfs) {
        let (totals, samples) = per_name.entry(span.name).or_default();
        totals.count += 1;
        totals.busy_s += span.duration_ns() as f64 / 1e9;
        totals.self_s += self_ns as f64 / 1e9;
        samples.push(self_ns as f64 / 1e3);
    }
    per_name
        .into_iter()
        .map(|(name, (mut totals, samples))| {
            totals.median_self_us = crate::stats::median(&samples);
            (name, totals)
        })
        .collect()
}

/// Write `spans` as tab-separated `id name start_ns end_ns parent` lines.
pub fn write_spans(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{parent}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Datagram accounting at the node boundary: every payload's size, and a
/// bounded sample of the payloads themselves for the `wire` replay.
#[derive(Default)]
pub struct WireCapture {
    msgs: Cell<u64>,
    bytes: Cell<u64>,
    samples: RefCell<Vec<Vec<u8>>>,
}

impl WireCapture {
    /// Payloads kept for the decode/encode replay.
    pub const MAX_SAMPLES: usize = 10_000;

    fn record(&self, payload: &[u8]) {
        self.msgs.set(self.msgs.get() + 1);
        self.bytes.set(self.bytes.get() + payload.len() as u64);
        let mut samples = self.samples.borrow_mut();
        if samples.len() < Self::MAX_SAMPLES {
            samples.push(payload.to_vec());
        }
    }

    /// Messages seen (queries and replies).
    pub fn msgs(&self) -> u64 {
        self.msgs.get()
    }

    /// Bytes seen.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Take the kept payloads.
    pub fn take_samples(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.samples.borrow_mut())
    }
}

/// Span name for the payload copies [`TimedNode`] makes; kept out of the
/// wrapped node's span so the copy is billed to tracing, not to a layer.
pub const CAPTURE: &str = "trace.capture";

/// Queries handled and reply bytes produced by every [`TimedNode`] of
/// one layer (the nodes share one of these).
#[derive(Default)]
pub struct NodeStats {
    /// Datagrams handed to `handle`.
    pub queries: Cell<u64>,
    /// Bytes of the replies that were sent back.
    pub reply_bytes: Cell<u64>,
}

/// A [`Node`] wrapper that records one span around the inner node's
/// `handle` and captures the datagrams that cross it. Byte-exact
/// pass-through: the reply buffer and the `Some`/`None` verdict are the
/// inner node's own.
pub struct TimedNode {
    inner: Rc<dyn Node>,
    name: &'static str,
    tracer: Rc<Tracer>,
    stats: Rc<NodeStats>,
    wire: Rc<WireCapture>,
}

impl TimedNode {
    /// Wrap `inner`; its spans are named `name`, its traffic is counted
    /// in `stats` and captured in `wire`.
    pub fn new(
        inner: Rc<dyn Node>,
        name: &'static str,
        tracer: Rc<Tracer>,
        stats: Rc<NodeStats>,
        wire: Rc<WireCapture>,
    ) -> Self {
        TimedNode {
            inner,
            name,
            tracer,
            stats,
            wire,
        }
    }
}

impl Node for TimedNode {
    fn handle(
        &self,
        net: &Network,
        src: IpAddr,
        payload: &[u8],
        reply: &mut Vec<u8>,
    ) -> Option<()> {
        let id = self.tracer.enter(self.name);
        let verdict = self.inner.handle(net, src, payload, reply);
        self.tracer.exit(id);
        let stats = &self.stats;
        stats.queries.set(stats.queries.get() + 1);
        if verdict.is_some() {
            stats
                .reply_bytes
                .set(stats.reply_bytes.get() + reply.len() as u64);
        }
        self.tracer.span(CAPTURE, || {
            self.wire.record(payload);
            if verdict.is_some() {
                self.wire.record(reply);
            }
        });
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30: the grandchild
        // comes off the child, not off the root.
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grand", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_and_out_of_bounds_children_are_unioned_and_clipped() {
        // Children 10..40 and 30..50 overlap by 10; 90..120 sticks out
        // of the parent by 20; 45..48 lies wholly inside covered time.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 120, Some(0)),
            span("d", 45, 48, Some(0)),
        ];
        // Covered: 10..50 (40) + 90..100 (10) = 50.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn children_recorded_out_of_start_order_still_union_correctly() {
        let spans = [
            span("root", 0, 100, None),
            span("late", 60, 80, Some(0)),
            span("early", 10, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn totals_group_by_name_and_sum_to_the_root() {
        let spans = [
            span("root", 0, 1_000, None),
            span("x", 100, 300, Some(0)),
            span("x", 400, 500, Some(0)),
            span("y", 150, 250, Some(1)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["x"].count, 2);
        assert!((totals["x"].busy_s - 300e-9).abs() < 1e-15);
        assert!((totals["x"].self_s - 200e-9).abs() < 1e-15);
        assert!((totals["x"].median_self_us - 0.1).abs() < 1e-12);
        // Self times partition the root's duration.
        let sum: f64 = totals.values().map(|t| t.self_s).sum();
        assert!((sum - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_renames_on_exit() {
        let tracer = Tracer::new();
        let outer = tracer.enter("outer");
        tracer.span("inner", || ());
        let late = tracer.enter("pending");
        tracer.exit_as(late, "classified");
        tracer.exit(outer);
        let spans = tracer.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].name, "classified");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    /// Echoes the payload reversed; stays silent on an empty payload
    /// after scribbling into the reply buffer, like a node that gives up
    /// mid-encode.
    struct Reverser;

    impl Node for Reverser {
        fn handle(
            &self,
            _net: &Network,
            _src: IpAddr,
            payload: &[u8],
            reply: &mut Vec<u8>,
        ) -> Option<()> {
            reply.extend(payload.iter().rev());
            if payload.is_empty() {
                reply.extend_from_slice(b"discarded");
                return None;
            }
            Some(())
        }
    }

    #[test]
    fn timed_node_is_a_byte_exact_pass_through() {
        let tracer = Rc::new(Tracer::new());
        let wire = Rc::new(WireCapture::default());
        let stats = Rc::new(NodeStats::default());
        let timed = TimedNode::new(
            Rc::new(Reverser),
            "auth",
            tracer.clone(),
            stats.clone(),
            wire.clone(),
        );
        let net = Network::new(1);
        let src: IpAddr = "192.0.2.1".parse().unwrap();
        for payload in [&b"abc"[..], &b""[..], &[0u8, 255, 7][..]] {
            let mut bare_reply = Vec::new();
            let bare = Reverser.handle(&net, src, payload, &mut bare_reply);
            let mut timed_reply = Vec::new();
            let wrapped = timed.handle(&net, src, payload, &mut timed_reply);
            assert_eq!(wrapped, bare);
            assert_eq!(timed_reply, bare_reply);
        }
        assert_eq!(stats.queries.get(), 3);
        assert_eq!(stats.reply_bytes.get(), 6, "silent replies are not counted");
        // Two answered exchanges capture both directions, the silent one
        // only its query.
        assert_eq!(wire.msgs(), 5);
        assert_eq!(
            wire.bytes(),
            12,
            "abc twice, the empty query, three bytes twice"
        );
        let spans = tracer.finish();
        assert_eq!(spans.iter().filter(|s| s.name == "auth").count(), 3);
        assert_eq!(spans.iter().filter(|s| s.name == CAPTURE).count(), 3);
    }

    #[test]
    fn timed_node_behaves_identically_on_the_network() {
        let src: IpAddr = "192.0.2.1".parse().unwrap();
        let dst: IpAddr = "192.0.2.2".parse().unwrap();
        let bare_net = Network::new(7);
        bare_net.register(dst, Rc::new(Reverser));
        let timed_net = Network::new(7);
        timed_net.register(
            dst,
            Rc::new(TimedNode::new(
                Rc::new(Reverser),
                "auth",
                Rc::new(Tracer::new()),
                Rc::default(),
                Rc::default(),
            )),
        );
        for payload in [&b"query"[..], &b""[..]] {
            assert_eq!(
                timed_net.send_query(src, dst, payload),
                bare_net.send_query(src, dst, payload)
            );
        }
        assert_eq!(timed_net.now_micros(), bare_net.now_micros());
    }
}
