//! What `BENCHMARK.json` declares, read at build time so the bench and the
//! declaration cannot drift apart unnoticed.

use droidracer_obs::json::Json;

use crate::run::Metric;

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// One declared metric.
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// How much worse than the parent's median the metric may get, as a
    /// share of it; end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The declaration.
pub struct Declared {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Declared {
    /// Parses the embedded `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Describes a missing or mistyped field.
    pub fn load() -> Result<Declared, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("no `{key}` list"))
        };
        let text = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("an entry has no `{key}` string"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDecl {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        better: text(m, "better")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declared {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no `run_seconds` number")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declared workload names, in order.
    pub fn workload_names(&self) -> Vec<&str> {
        self.workloads
            .iter()
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// The `--list` text: every workload with its reason, every metric with
    /// its unit, direction and bound.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, why) in &self.workloads {
            out.push_str(&format!("workload {name}: {why}\n"));
        }
        for (kind, metrics) in [
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ] {
            for m in metrics {
                let bound = m.bound.map(|b| format!(" bound {b}")).unwrap_or_default();
                out.push_str(&format!(
                    "{kind} {} {} {}{bound}\n",
                    m.name, m.unit, m.better
                ));
            }
        }
        out
    }
}

/// Checks that `emitted` is exactly the `declared` set, units included.
///
/// # Errors
///
/// Names every undeclared, missing or mis-united metric.
pub fn matches(declared: &[MetricDecl], emitted: &[Metric]) -> Result<(), String> {
    let mut problems = Vec::new();
    for m in emitted {
        match declared.iter().find(|d| d.name == m.name) {
            None => problems.push(format!("undeclared {}", m.name)),
            Some(d) if d.unit != m.unit => {
                problems.push(format!("{} in {} not {}", m.name, m.unit, d.unit))
            }
            Some(_) => {}
        }
    }
    for d in declared {
        if !emitted.iter().any(|m| m.name == d.name) {
            problems.push(format!("missing {}", d.name));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Workload;

    #[test]
    fn the_declaration_names_the_bench_workloads() {
        let declared = Declared::load().expect("BENCHMARK.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared.workload_names(), names);
        assert!(declared.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(declared
            .render()
            .contains("end_to_end setup_s s lower bound"));
    }

    #[test]
    fn undeclared_missing_and_misunited_metrics_are_refused() {
        let decl = |name: &str, unit: &str| MetricDecl {
            name: name.to_owned(),
            unit: unit.to_owned(),
            better: "lower".to_owned(),
            bound: None,
        };
        let declared = [decl("a_ms", "ms"), decl("b_s", "s")];
        let emit = |name: &'static str, unit: &'static str| Metric {
            name,
            value: 1.0,
            unit,
        };
        assert!(matches(&declared, &[emit("a_ms", "ms"), emit("b_s", "s")]).is_ok());
        let err = matches(&declared, &[emit("a_ms", "s"), emit("c", "ms")]).unwrap_err();
        assert!(err.contains("a_ms in s not ms"), "{err}");
        assert!(err.contains("undeclared c"), "{err}");
        assert!(err.contains("missing b_s"), "{err}");
    }
}
