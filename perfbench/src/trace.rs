//! In-memory span recorder for the traced run.
//!
//! A span brackets one call the benchmark makes into a layer's public
//! function: name, start, end, the enclosing span (parent), and the
//! operation it belongs to (op id, e.g. the round trip's sequence
//! number). Spans are kept in a preallocated buffer and written out when
//! the rank finishes; durations also feed per-name reservoirs that the
//! per-layer medians come from. With tracing off every wrapper is a
//! plain call.

use crate::sample::Reservoir;
use std::io::Write;
use std::time::Instant;

/// Span names, one per timed public call or operation boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One ping-pong round trip (rank 0) or ping served (rank 1).
    RoundTrip,
    /// One stream or bandwidth window.
    Window,
    /// `Endpoint::send_am`.
    SendAm,
    /// `Endpoint::send`.
    Send,
    /// `Endpoint::post_recv`.
    PostRecv,
    /// `Endpoint::test_recv`.
    TestRecv,
    /// `Endpoint::progress`.
    Progress,
    /// `Endpoint::poll_msg`.
    PollMsg,
    /// The wait loop from the first poll until a message arrives.
    RecvWait,
    /// One MoE layer (exchange, dispatch, compute, combine).
    Layer,
    /// `World::exchange_counts`.
    ExchangeCounts,
    /// `World::alltoallv` (dispatch or combine).
    Alltoallv,
    /// The expert compute over the received tokens.
    Compute,
    /// `World::allreduce`.
    Allreduce,
}

pub const NAMES: [Name; 14] = [
    Name::RoundTrip,
    Name::Window,
    Name::SendAm,
    Name::Send,
    Name::PostRecv,
    Name::TestRecv,
    Name::Progress,
    Name::PollMsg,
    Name::RecvWait,
    Name::Layer,
    Name::ExchangeCounts,
    Name::Alltoallv,
    Name::Compute,
    Name::Allreduce,
];

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::RoundTrip => "round_trip",
            Name::Window => "window",
            Name::SendAm => "send_am",
            Name::Send => "send",
            Name::PostRecv => "post_recv",
            Name::TestRecv => "test_recv",
            Name::Progress => "progress",
            Name::PollMsg => "poll_msg",
            Name::RecvWait => "recv_wait",
            Name::Layer => "layer",
            Name::ExchangeCounts => "exchange_counts",
            Name::Alltoallv => "alltoallv",
            Name::Compute => "compute",
            Name::Allreduce => "allreduce",
        }
    }
}

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the buffer, `u32::MAX` for none.
    pub parent: u32,
    pub op: u64,
}

/// Per-name duration totals and a reservoir for the median.
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub durations: Reservoir,
}

pub struct Tracer {
    /// Whether spans are recorded right now (toggled per block).
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Buffer length at which the current quota runs out.
    cap: usize,
    /// Buffer index (or `u32::MAX` when the buffer was full) and start
    /// of each open span.
    open: Vec<(u32, Name, u64)>,
    pub dropped: u64,
    pub stats: Vec<NameStats>,
}

/// Reservoir size per span name.
const RESERVOIR: usize = 1 << 18;

impl Tracer {
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::with_capacity(cap),
            cap,
            open: Vec::with_capacity(16),
            dropped: 0,
            stats: NAMES
                .iter()
                .map(|_| NameStats { count: 0, total_ns: 0, durations: Reservoir::new(RESERVOIR) })
                .collect(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the origin (anchors span times to the wall
    /// clock when they are written out).
    pub fn age_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Opens a span; pair with [`end`](Self::end). No-op when off.
    #[inline]
    pub fn begin(&mut self, name: Name, op: u64) {
        if !self.on {
            return;
        }
        let start = self.now_ns();
        let parent = self.open.last().map_or(u32::MAX, |o| o.0);
        let idx = if self.spans.len() < self.cap {
            self.spans.push(Span { name, start, end: start, parent, op });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            u32::MAX
        };
        self.open.push((idx, name, start));
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let Some((idx, name, start)) = self.open.pop() else { return };
        let end = self.now_ns();
        if idx != u32::MAX {
            self.spans[idx as usize].end = end;
        }
        let d = end - start;
        let st = &mut self.stats[name as usize];
        st.count += 1;
        st.total_ns += d;
        st.durations.push(d.min(u32::MAX as u64) as u32);
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<T>(&mut self, name: Name, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.begin(name, op);
        let r = f();
        self.end();
        r
    }

    /// Per-name stats, cleared (called at every phase boundary).
    pub fn take_stats(&mut self) -> Vec<(Name, u64, u64, Vec<u32>)> {
        let out = NAMES
            .iter()
            .zip(self.stats.iter_mut())
            .filter(|(_, s)| s.count > 0)
            .map(|(&n, s)| (n, s.count, s.total_ns, std::mem::take(&mut s.durations.samples)))
            .collect();
        for s in &mut self.stats {
            s.count = 0;
            s.total_ns = 0;
            s.durations.clear();
        }
        out
    }

    /// Lets the buffer take at most `n` more spans (one quota per phase
    /// round, so every phase keeps spans to write out). The buffer never
    /// grows past its initial capacity.
    pub fn set_quota(&mut self, n: usize) {
        self.cap = (self.spans.len() + n).min(self.spans.capacity());
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes the buffered spans as tab-separated lines with a header;
    /// `origin_unix_ns` anchors the relative times across ranks.
    pub fn write_tsv(&self, path: &std::path::Path, origin_unix_ns: u64) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# origin_unix_ns={origin_unix_ns} dropped={}", self.dropped)?;
        writeln!(w, "idx\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX { -1 } else { s.parent as i64 };
            writeln!(w, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name.as_str(), s.start, s.end, s.op)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record() {
        let mut t = Tracer::new(8);
        t.on = true;
        t.begin(Name::RoundTrip, 7);
        let v = t.span(Name::SendAm, 7, || 42);
        assert_eq!(v, 42);
        t.end();
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, u32::MAX);
        assert_eq!(t.spans[1].op, 7);
        let stats = t.take_stats();
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn quota_bounds_each_phase() {
        let mut t = Tracer::new(10);
        t.on = true;
        t.set_quota(2);
        for op in 0..5 {
            t.span(Name::SendAm, op, || ());
        }
        assert_eq!((t.span_count(), t.dropped), (2, 3));
        t.set_quota(100);
        for op in 0..20 {
            t.span(Name::SendAm, op, || ());
        }
        assert_eq!(t.span_count(), 10);
    }

    #[test]
    fn off_records_nothing_and_full_buffer_drops() {
        let mut t = Tracer::new(1);
        t.span(Name::Progress, 0, || ());
        assert_eq!(t.span_count(), 0);
        t.on = true;
        t.span(Name::Progress, 0, || ());
        t.span(Name::Progress, 1, || ());
        assert_eq!(t.span_count(), 1);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.stats[Name::Progress as usize].count, 2);
    }
}
