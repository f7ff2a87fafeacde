//! One shared rendering path for every deliverable artifact.
//!
//! The `repro` CLI and the `ucore-serve` daemon answer the same
//! questions — "give me table 5", "give me figure-6 as JSON" — and the
//! differential contract between them is *byte identity*: a served
//! response body must equal the bytes `repro` writes to stdout for the
//! same target. The only way to keep that guarantee honest as targets
//! grow is to render both from one function, so this module owns the
//! target → bytes mapping and both front ends delegate to it.
//!
//! Errors are *typed* here ([`RenderError`]), without the CLI usage
//! banner: `repro` appends its usage text to bad-target errors (its
//! historical stderr bytes), while the server maps the same variants to
//! taxonomy-coded JSON error responses.

use crate::{figures, scenarios, tables};
use std::fmt;

/// A renderable artifact, addressed the way both front ends spell it
/// (`repro --table 5` / `GET /table/5`; `repro --json figure-6` /
/// `GET /json/figure-6`). Values are kept as the caller's raw strings
/// so error messages echo exactly what was asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A paper table, `"1"`-`"6"`.
    Table(String),
    /// An ASCII-rendered figure, `"2"`-`"11"`.
    Figure(String),
    /// A §6.2 scenario, `"1"`-`"6"`.
    Scenario(String),
    /// A projection figure as pretty-printed JSON, `"figure-6"` -
    /// `"figure-11"`.
    Json(String),
    /// A projection figure as CSV, `"figure-6"` - `"figure-11"`.
    Csv(String),
}

/// The rendered bytes plus the health the render observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rendered {
    /// The exact bytes `repro` would write to stdout for this target
    /// (trailing newline included).
    pub body: String,
    /// Contained sweep failures inside this render, for projection
    /// targets (`Json`/`Csv`, whose [`ucore_project::FigureData`]
    /// carries health). `None` for targets without per-render health.
    pub points_failed: Option<u64>,
}

/// Why a render failed.
#[derive(Debug)]
pub enum RenderError {
    /// The table number is not `1`-`6`.
    UnknownTable(String),
    /// The figure number is not `2`-`11`.
    UnknownFigure(String),
    /// The scenario number is not `1`-`6`.
    UnknownScenario(String),
    /// The JSON/CSV target is not `figure-6`-`figure-11`.
    UnknownProjection(String),
    /// The model itself failed (projection, calibration, or
    /// serialization) — already stringified so the error is `Send`.
    Model(String),
}

impl RenderError {
    /// Whether the failure is a bad *target* (the caller asked for
    /// something that does not exist) as opposed to a model failure.
    /// `repro` appends its usage banner to these; the server answers
    /// 404.
    pub fn is_bad_target(&self) -> bool {
        !matches!(self, RenderError::Model(_))
    }
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RenderError::UnknownTable(n) => {
                write!(f, "table {n} is not one of 1-6")
            }
            RenderError::UnknownFigure(n) => {
                write!(f, "figure {n} is not one of 2-11")
            }
            RenderError::UnknownScenario(n) => {
                write!(f, "scenario {n:?} is not one of 1-6")
            }
            RenderError::UnknownProjection(t) => {
                write!(f, "unknown projection target {t}")
            }
            RenderError::Model(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for RenderError {}

/// Stringifies a model-layer failure into the `Send`-able variant.
fn model_error(e: impl fmt::Display) -> RenderError {
    RenderError::Model(e.to_string())
}

/// The projection data behind a `figure-N` JSON/CSV target.
///
/// # Errors
///
/// [`RenderError::UnknownProjection`] for a target outside
/// `figure-6`-`figure-11`, [`RenderError::Model`] for projection
/// failures.
pub fn projection(which: &str) -> Result<ucore_project::FigureData, RenderError> {
    match which {
        "figure-6" => ucore_project::figures::figure6().map_err(model_error),
        "figure-7" => ucore_project::figures::figure7().map_err(model_error),
        "figure-8" => ucore_project::figures::figure8().map_err(model_error),
        "figure-9" => ucore_project::figures::figure9().map_err(model_error),
        "figure-10" => ucore_project::figures::figure10().map_err(model_error),
        "figure-11" => ucore_project::figures::figure11().map_err(model_error),
        other => Err(RenderError::UnknownProjection(other.to_string())),
    }
}

/// Renders one target to the exact stdout bytes `repro` prints for it.
///
/// # Errors
///
/// The `Unknown*` variants for a target that does not exist;
/// [`RenderError::Model`] when the projection, calibration, or JSON
/// serialization fails.
pub fn render(target: &Target) -> Result<Rendered, RenderError> {
    // Every body ends in a newline, pushed in place so that the body is
    // never copied.
    let rendered = |mut body: String, points_failed: Option<u64>| {
        body.push('\n');
        Rendered { body, points_failed }
    };
    match target {
        Target::Table(n) => {
            let body = match n.as_str() {
                "1" => tables::table1().map_err(model_error)?,
                "2" => tables::table2(),
                "3" => tables::table3(),
                "4" => tables::table4(),
                "5" => tables::table5().map_err(model_error)?,
                "6" => tables::table6(),
                other => return Err(RenderError::UnknownTable(other.to_string())),
            };
            Ok(rendered(body, None))
        }
        Target::Figure(n) => {
            let body = match n.as_str() {
                "2" => figures::figure2(),
                "3" => figures::figure3(),
                "4" => figures::figure4(),
                "5" => figures::figure5(),
                "6" => figures::figure6().map_err(model_error)?,
                "7" => figures::figure7().map_err(model_error)?,
                "8" => figures::figure8().map_err(model_error)?,
                "9" => figures::figure9().map_err(model_error)?,
                "10" => figures::figure10().map_err(model_error)?,
                "11" => figures::figure11().map_err(model_error)?,
                other => return Err(RenderError::UnknownFigure(other.to_string())),
            };
            Ok(rendered(body, None))
        }
        Target::Scenario(n) => {
            let num: u8 = n
                .parse()
                .map_err(|_| RenderError::UnknownScenario(n.clone()))?;
            let body = scenarios::scenario(num).map_err(model_error)?;
            Ok(rendered(body, None))
        }
        Target::Json(which) => {
            let fig = projection(which)?;
            let json = serde_json::to_string_pretty(&fig).map_err(model_error)?;
            Ok(rendered(json, Some(fig.health.points_failed as u64)))
        }
        Target::Csv(which) => {
            let fig = projection(which)?;
            Ok(rendered(figures::figure_csv(&fig), Some(fig.health.points_failed as u64)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_targets_are_typed_and_usage_worthy() {
        let cases: [(Target, &str); 4] = [
            (Target::Table("7".into()), "table 7 is not one of 1-6"),
            (Target::Figure("12".into()), "figure 12 is not one of 2-11"),
            (Target::Scenario("x".into()), "scenario \"x\" is not one of 1-6"),
            (
                Target::Json("figure-2".into()),
                "unknown projection target figure-2",
            ),
        ];
        for (target, msg) in cases {
            let err = render(&target).unwrap_err();
            assert!(err.is_bad_target(), "{target:?}");
            assert_eq!(err.to_string(), msg);
        }
    }

    #[test]
    fn json_target_reports_health_and_trailing_newline() {
        let r = render(&Target::Json("figure-6".into())).unwrap();
        assert_eq!(r.points_failed, Some(0));
        assert!(r.body.ends_with('\n'));
        assert!(!r.body.ends_with("\n\n"));
        assert!(r.body.starts_with('{'));
    }

    #[test]
    fn table_and_scenario_bodies_match_their_renderers() {
        let t5 = render(&Target::Table("5".into())).unwrap();
        assert_eq!(t5.body, format!("{}\n", tables::table5().unwrap()));
        assert_eq!(t5.points_failed, None);
        let s1 = render(&Target::Scenario("1".into())).unwrap();
        assert_eq!(s1.body, format!("{}\n", scenarios::scenario(1).unwrap()));
    }
}
