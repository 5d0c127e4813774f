//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into a
//! layer's public function: name, start, end, parent span and the
//! evaluation it belongs to. Spans stay in memory until the run ends,
//! when [`Tracer::write_chrome`] writes them as Chrome trace-event JSON
//! (opens in Perfetto or `chrome://tracing`). A span's self time is its
//! duration minus the durations of its child spans; per-layer metrics
//! are sums of self time per root span (one evaluation or one set-up).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Evaluation (or set-up repetition) the span belongs to.
    pub eval: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a root span: `kind` is `"eval"` or `"setup"`.
    pub fn root<T>(
        &mut self,
        kind: &'static str,
        eval: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        assert!(
            self.stack.is_empty(),
            "root span opened inside another span"
        );
        self.record(kind, eval, f)
    }

    /// Run `f` inside a child span of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let eval = match self.stack.last() {
            Some(&p) => self.spans[p].eval,
            None => panic!("span {name} opened outside a root span"),
        };
        self.record(name, eval, f)
    }

    fn record<T>(&mut self, name: &'static str, eval: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            eval,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the most recently closed root span.
    pub fn last_root_dur(&self) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.parent.is_none())
            .map_or(0.0, Span::dur)
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur();
            }
        }
        own
    }

    fn roots(&self) -> Vec<usize> {
        let mut root = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root[i] = s.parent.map_or(i, |p| root[p]);
        }
        root
    }

    /// Per root span of kind `kind`: the summed self time of its spans
    /// named in `names`. Roots that contain none of them are skipped.
    pub fn self_per_root(&self, kind: &str, names: &[&str]) -> Vec<f64> {
        self.per_root(kind, names, &self.self_times())
    }

    /// Like [`Tracer::self_per_root`], with whole durations (children
    /// included) instead of self times.
    pub fn dur_per_root(&self, kind: &str, names: &[&str]) -> Vec<f64> {
        let durs: Vec<f64> = self.spans.iter().map(Span::dur).collect();
        self.per_root(kind, names, &durs)
    }

    fn per_root(&self, kind: &str, names: &[&str], value: &[f64]) -> Vec<f64> {
        let root = self.roots();
        let mut sums: Vec<Option<f64>> = vec![None; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if names.contains(&s.name) && self.spans[root[i]].name == kind {
                *sums[root[i]].get_or_insert(0.0) += value[i];
            }
        }
        sums.into_iter().flatten().collect()
    }

    /// Write every span as a Chrome trace-event "complete" event, with
    /// the span id, parent id, evaluation id and self time as args.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"eval\":{},\"self_us\":{:.3}}}}}{sep}",
                s.name,
                s.start * 1e6,
                s.dur() * 1e6,
                s.eval,
                own[i] * 1e6,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_group_by_kind() {
        let mut tr = Tracer::default();
        for e in 0..2 {
            tr.root("eval", e, |tr| {
                tr.span("a", |tr| {
                    tr.span("b", |_| {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    })
                });
            });
        }
        tr.root("setup", 0, |tr| tr.span("a", |_| ()));
        let own = tr.self_times();
        for (i, s) in tr.spans().iter().enumerate() {
            assert!(own[i] >= -1e-9 && own[i] <= s.dur() + 1e-12);
        }
        let b = tr.self_per_root("eval", &["b"]);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|&t| t >= 0.002));
        let a = tr.self_per_root("eval", &["a"]);
        assert!(a.iter().zip(&b).all(|(a, b)| a < b));
        assert_eq!(tr.self_per_root("setup", &["a"]).len(), 1);
        assert!(tr.self_per_root("eval", &["missing"]).is_empty());
    }
}
