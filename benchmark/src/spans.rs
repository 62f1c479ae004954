//! Spans recorded by the benchmark around each public call into `dirgl`.
//!
//! A span is a name, a start, an end, and the span that caused it. Spans
//! are kept in memory and written out as JSON lines when the run ends. The
//! end-to-end run uses a disabled recorder: [`Scope::span`] then only times
//! the call and records nothing.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds of host clock since the
/// recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: u32,
    /// The span this one ran inside, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `core.run`.
    pub name: &'static str,
    /// Thread of control: 0 is the main thread, serve clients count from 1.
    /// Spans of one lane never overlap unless one contains the other.
    pub lane: u32,
    /// Start of the interval.
    pub start_ns: u64,
    /// End of the interval.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or only times calls.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The scope with no parent on `lane`.
    pub fn root(&self, lane: u32) -> Scope<'_> {
        Scope {
            rec: self,
            parent: None,
            lane,
        }
    }

    /// Every span recorded so far, in start order per lane.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Writes one JSON object per span to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.lock().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"lane\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                parent,
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            )?;
        }
        w.flush()
    }
}

/// Where the next span attaches: a recorder, a parent span and a lane.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    rec: &'a Recorder,
    parent: Option<u32>,
    lane: u32,
}

impl<'a> Scope<'a> {
    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's length in seconds. `f` receives the scope its own calls
    /// attach to. With a disabled recorder nothing is stored.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Scope<'a>) -> T) -> (T, f64) {
        if !self.rec.enabled {
            let t = Instant::now();
            let out = f(*self);
            return (out, t.elapsed().as_secs_f64());
        }
        let id = {
            let mut spans = self.rec.lock();
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                parent: self.parent,
                name,
                lane: self.lane,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start = self.rec.origin.elapsed();
        let out = f(Scope {
            rec: self.rec,
            parent: Some(id),
            lane: self.lane,
        });
        let end = self.rec.origin.elapsed();
        let mut spans = self.rec.lock();
        spans[id as usize].start_ns = start.as_nanos() as u64;
        spans[id as usize].end_ns = end.as_nanos() as u64;
        (out, (end - start).as_secs_f64())
    }
}

/// The share of each span named `parent` that its direct children cover,
/// as `(smallest share, share of the summed lengths)`; both are 1 when there
/// is no such span.
pub fn child_coverage(spans: &[Span], parent: &str) -> (f64, f64) {
    let (mut worst, mut covered_all, mut length_all) = (1.0f64, 0.0, 0.0);
    for p in spans.iter().filter(|s| s.name == parent) {
        let covered: f64 = spans
            .iter()
            .filter(|c| c.parent == Some(p.id))
            .map(Span::secs)
            .sum();
        if p.secs() > 0.0 {
            worst = worst.min(covered / p.secs());
        }
        covered_all += covered;
        length_all += p.secs();
    }
    let overall = if length_all > 0.0 {
        covered_all / length_all
    } else {
        1.0
    };
    (worst, overall)
}

/// Checks the tree: every child lies inside its parent, and the children
/// of one parent on the parent's own lane never sum to more than it.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    for p in spans {
        let mut same_lane_ns = 0u64;
        for c in spans.iter().filter(|c| c.parent == Some(p.id)) {
            if c.start_ns < p.start_ns || c.end_ns > p.end_ns {
                return Err(format!(
                    "span {} ({}) leaves its parent {} ({})",
                    c.id, c.name, p.id, p.name
                ));
            }
            if c.lane == p.lane {
                same_lane_ns += c.end_ns - c.start_ns;
            }
        }
        if same_lane_ns > p.end_ns - p.start_ns {
            return Err(format!(
                "children of span {} ({}) sum to more than it",
                p.id, p.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_recorded_and_checked() {
        let rec = Recorder::new(true);
        let (v, secs) = rec.root(0).span("op", |s| {
            s.span("a", |_| std::hint::black_box(1)).0 + s.span("b", |_| 2).0
        });
        assert_eq!(v, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!((spans[0].secs() - secs).abs() < 1e-9);
        check_tree(&spans).unwrap();
        let (worst, overall) = child_coverage(&spans, "op");
        assert!(0.0 < worst && worst <= 1.0 && worst == overall);
    }

    #[test]
    fn a_child_outside_its_parent_is_reported() {
        let mk = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            lane: 0,
            start_ns,
            end_ns,
        };
        let bad = [mk(0, None, 10, 20), mk(1, Some(0), 5, 15)];
        assert!(check_tree(&bad).is_err());
        let overlapping = [
            mk(0, None, 0, 10),
            mk(1, Some(0), 0, 7),
            mk(2, Some(0), 6, 10),
        ];
        assert!(check_tree(&overlapping).is_err());
        let good = [
            mk(0, None, 0, 10),
            mk(1, Some(0), 2, 8),
            mk(2, Some(0), 8, 10),
        ];
        assert!(check_tree(&good).is_ok());
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        let (v, _) = rec.root(0).span("op", |_| 5);
        assert_eq!(v, 5);
        assert!(rec.spans().is_empty());
    }
}
