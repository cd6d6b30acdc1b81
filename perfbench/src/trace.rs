//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into the runtime: a request span from submit (or connection
//! write) to the client observing the answer, with the submit or write
//! call as its child. Nothing inside the program is instrumented. The
//! newest spans stay in a fixed-size ring, so memory does not grow with
//! run length, and are written out when the run ends; self time is
//! folded into a histogram as each request closes.

use std::io::Write as _;
use std::time::Instant;

use sdrad_runtime::LatencyHistogram;

/// One span: `parent` is 0 for a root span; a request's spans share
/// its `request` id.
#[derive(Debug, Clone, Copy)]
struct Span {
    request: u64,
    parent: u8,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept per run: the newest this many.
const RING: usize = 1 << 16;

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    ring: Vec<Span>,
    recorded: u64,
    /// Request self time: the request span minus its child call.
    pub self_time: LatencyHistogram,
}

impl Spans {
    /// A recorder whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            ring: Vec::with_capacity(RING),
            recorded: 0,
            self_time: LatencyHistogram::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, span: Span) {
        if self.ring.len() < RING {
            self.ring.push(span);
        } else {
            self.ring[(self.recorded % RING as u64) as usize] = span;
        }
        self.recorded += 1;
    }

    /// Closes request `request`: its root span `layer` ran `start..end`
    /// and its child call `call` ran `call_span`.
    pub fn request(
        &mut self,
        request: u64,
        layer: &'static str,
        (start, end): (Instant, Instant),
        call: &'static str,
        call_span: (Instant, Instant),
    ) {
        let root = Span {
            request,
            parent: 0,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let child = Span {
            request,
            parent: 1,
            layer: call,
            start_ns: self.ns(call_span.0),
            end_ns: self.ns(call_span.1),
        };
        let own = (root.end_ns - root.start_ns).saturating_sub(child.end_ns - child.start_ns);
        self.self_time.record(own);
        self.push(root);
        self.push(child);
    }

    /// Writes the kept spans as CSV (`request,parent,layer,start_ns,end_ns`).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request,parent,layer,start_ns,end_ns")?;
        let mut spans = self.ring.clone();
        spans.sort_by_key(|span| (span.request, span.parent));
        for span in spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                span.request, span.parent, span.layer, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
