//! The benchmark's own tests: input determinism, metric names against
//! `BENCHMARK.json`, and a tiny-size smoke run of every workload that
//! exercises the correctness checks and the trace writer.

use polaroct_perfbench::inputs::{Inputs, Size};
use polaroct_perfbench::report::{END_TO_END, PER_LAYER};
use polaroct_perfbench::workloads::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn same_seed_same_inputs_and_different_seeds_differ() {
    for size in [Size::Tiny, Size::Full] {
        let a = Inputs::new(7, size).encode(3);
        assert_eq!(
            a,
            Inputs::new(7, size).encode(3),
            "{size:?}: same seed, different bytes"
        );
        assert_ne!(
            a,
            Inputs::new(8, size).encode(3),
            "{size:?}: different seeds, same bytes"
        );
    }
}

#[test]
fn metric_names_match_benchmark_json() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let doc = parse(&text);
    let names = |key: &str, with_unit: bool| -> Vec<(String, String)> {
        doc.get(key)
            .array()
            .iter()
            .map(|m| {
                let unit = if with_unit {
                    m.get("unit").str().to_string()
                } else {
                    String::new()
                };
                (m.get("name").str().to_string(), unit)
            })
            .collect()
    };
    let spec = |s: &[(&str, &str)]| -> Vec<(String, String)> {
        s.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end", true), spec(END_TO_END));
    assert_eq!(names("per_layer", true), spec(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    let listed: Vec<String> = names("workloads", false)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(listed, workloads);
}

#[test]
fn tiny_smoke_run_covers_every_workload_checks_and_trace() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::create_dir_all(&dir).expect("smoke directory");
    for w in Workload::ALL {
        for (trace, spec) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let trace_file = dir.join(format!(".bench_out/trace-{}-seed3.json", w.name()));
            let _ = std::fs::remove_file(&trace_file);
            let out = Command::new(env!("CARGO_BIN_EXE_polaroct-perfbench"))
                .current_dir(&dir)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    "3",
                    "--seconds",
                    "0.2",
                    "--trace",
                    trace,
                ])
                .args(["--size", "tiny"])
                .output()
                .expect("run the benchmark binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{} trace {trace} failed:\n{stderr}",
                w.name()
            );
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let result = parse(stdout.lines().last().expect("a result line"));
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{} trace {trace}:\n{stderr}",
                w.name()
            );
            assert_eq!(result.get("failed").num(), 0.0);
            assert!(result.get("attempted").num() >= 1.0);
            let Json::Object(metrics) = result.get("metrics") else {
                panic!("metrics is not an object")
            };
            let keys: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = spec.iter().map(|(n, _)| *n).collect();
            want.sort_unstable();
            assert_eq!(keys, want, "{} trace {trace}", w.name());
            for (name, unit) in spec {
                let m = &metrics[*name];
                assert_eq!(m.get("unit").str(), *unit);
                assert!(m.get("value").num().is_finite());
            }
            if trace == "1" {
                assert_eq!(metrics["trace.faults"].get("value").num(), 0.0);
                let events =
                    parse(&std::fs::read_to_string(&trace_file).expect("trace file written"));
                let events = events.get("traceEvents").array();
                assert!(!events.is_empty(), "{}: empty trace", w.name());
                for e in events {
                    assert!(e.get("dur").num() >= 0.0);
                    assert!(e.get("args").get("self_us").num() > -1.0);
                }
            }
        }
    }
}

// A minimal JSON reader: enough for BENCHMARK.json, the result line and
// the trace file.

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Array(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing characters after JSON value");
    v
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.b.get(self.i).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        m.insert(k, self.value());
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Object(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut v = Vec::new();
                if self.peek() != b']' {
                    loop {
                        v.push(self.value());
                        if self.peek() != b',' {
                            break;
                        }
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Array(v)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self.i < self.b.len() && !b",]} \n\r\t".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.b[start..self.i]).expect("ascii literal") {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad literal {n:?}"))),
                }
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut s = String::new();
        loop {
            let c = self.b[self.i];
            self.i += 1;
            match c {
                b'"' => return s,
                b'\\' => {
                    let e = self.b[self.i];
                    self.i += 1;
                    s.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        other => other as char,
                    });
                }
                _ => {
                    // Copy one UTF-8 sequence whole.
                    let len = match c {
                        0xF0.. => 4,
                        0xE0.. => 3,
                        0xC0.. => 2,
                        _ => 1,
                    };
                    s.push_str(
                        std::str::from_utf8(&self.b[self.i - 1..self.i - 1 + len]).expect("utf-8"),
                    );
                    self.i += len - 1;
                }
            }
        }
    }
}
