//! A small JSON reader for the `results.json` files `--compare` judges.
//! `llmqo-obs` validates JSON but does not build values, and nothing else
//! offline does.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parses one JSON value with nothing but whitespace after it.
pub fn parse(text: &str) -> Result<Json, String> {
    // Reject malformed input with the workspace's validator first, so the
    // reader below only ever walks well-formed text.
    llmqo_obs::validate_json(text)?;
    let mut p = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    Ok(p.value())
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.bytes[self.pos] {
            b'{' => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.ws();
                    if self.bytes[self.pos] == b'}' {
                        self.pos += 1;
                        return Json::Obj(map);
                    }
                    let key = self.string();
                    self.ws();
                    self.pos += 1; // ':'
                    map.insert(key, self.value());
                    self.ws();
                    if self.bytes[self.pos] == b',' {
                        self.pos += 1;
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.bytes[self.pos] == b']' {
                        self.pos += 1;
                        return Json::Arr(items);
                    }
                    items.push(self.value());
                    self.ws();
                    if self.bytes[self.pos] == b',' {
                        self.pos += 1;
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.pos += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.pos += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.pos += 4;
                Json::Null
            }
            _ => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("0");
                Json::Num(text.parse().unwrap_or(f64::NAN))
            }
        }
    }

    fn string(&mut self) -> String {
        self.pos += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8_lossy(&out).into_owned();
                }
                // The files read here are this benchmark's own and escape
                // nothing; an escape in a foreign file is kept verbatim,
                // which at worst makes a key match no metric name.
                b'\\' => {
                    out.push(self.bytes[self.pos + 1]);
                    self.pos += 2;
                }
                b => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_values_and_rejects_garbage() {
        let v = parse(r#" {"a": [1, -2.5e1, "x\"y"], "b": {"c": true, "d": null}} "#)
            .expect("well-formed");
        let Some(Json::Arr(a)) = v.get("a") else {
            panic!("array expected");
        };
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2], Json::Str("x\"y".into()));
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Json::Null));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
    }
}
