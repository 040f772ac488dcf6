//! A JSON object emitter. Reports are read back (by `compare`, and by the
//! tests) with `aim_telemetry::jsonv`.

use aim_telemetry::jsonv::{self, Json, JsonError};
use aim_telemetry::report::json_escape;

/// One JSON object, keys in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `key` with `value` already rendered as JSON.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&quoted(key));
        self.body.push_str(": ");
        self.body.push_str(value);
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, &quoted(value))
    }

    /// A number with every digit `f64` carries; a value that is not finite
    /// has no JSON form and is written as `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        if value.is_finite() {
            self.raw(key, &format!("{value}"))
        } else {
            self.raw(key, "null")
        }
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// `s` as a JSON string.
pub fn quoted(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

pub fn validate(text: &str) -> Result<Json, JsonError> {
    jsonv::parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_every_value_kind_as_valid_json() {
        let mut inner = Obj::new();
        inner.num("value", 1.2034).str("unit", "ms");
        let mut o = Obj::new();
        o.bool("correct", true)
            .int("attempted", 1000)
            .num("tiny", 4.2e-8)
            .num("nan", f64::NAN)
            .str("text", "a \"quoted\"\\ line\nwith\ttabs\u{1}")
            .raw("metric", &inner.finish())
            .raw("list", &array(&["1".into(), "2".into()]));
        let text = o.finish();
        let parsed = validate(&text).expect("valid JSON");
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(parsed.get("tiny").and_then(Json::as_f64), Some(4.2e-8));
        assert_eq!(
            parsed.path("metric/unit").and_then(Json::as_str),
            Some("ms")
        );
        assert_eq!(
            parsed.get("text").and_then(Json::as_str),
            Some("a \"quoted\"\\ line\nwith\ttabs\u{1}")
        );
        assert_eq!(
            parsed.get("list").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(!text.contains('\n'), "one report is one line");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let mut o = Obj::new();
        o.num("x", 0.1 + 0.2);
        assert_eq!(o.finish(), "{\"x\": 0.30000000000000004}");
        assert_eq!(Obj::new().finish(), "{}");
    }
}
