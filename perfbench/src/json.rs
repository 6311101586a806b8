//! A linear-time JSON reader for the daemon's responses.
//!
//! `devharness::json::Json::parse` takes time quadratic in the input
//! (about 75 ms for a 57 KB batch body), which would make the client's
//! own parsing the largest cost of a batch. Responses read inside the
//! timed phases go through this reader instead; it builds the same
//! `Json` values.

use devharness::json::Json;

/// Parses one JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.i == p.b.len() {
        Ok(value)
    } else {
        Err(p.error("trailing input"))
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.b.get(self.i) == Some(&c);
        if hit {
            self.i += 1;
        }
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(self.error("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    if !self.eat(b',') {
                        self.expect(b'}')?;
                        return Ok(Json::Obj(members));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if !self.eat(b',') {
                        self.expect(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while matches!(
                    self.b.get(self.i),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.error("bad number"))
            }
            None => Err(self.error("unexpected end")),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .b
            .get(self.i..self.i + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.i += 4;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let start = self.i;
            while matches!(self.b.get(self.i), Some(&c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            out.extend_from_slice(&self.b[start..self.i]);
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"));
                }
                Some(b'\\') => {
                    self.i += 1;
                    let escaped = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| self.error("unexpected end"))?;
                    self.i += 1;
                    let c = match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code)
                                && self.b[self.i..].starts_with(b"\\u")
                            {
                                self.i += 2;
                                let low = self.hex4()?;
                                code = 0x10000
                                    + ((code - 0xd800) << 10)
                                    + (low.wrapping_sub(0xdc00) & 0x3ff);
                            }
                            char::from_u32(code).ok_or_else(|| self.error("bad code point"))?
                        }
                        _ => return Err(self.error("bad escape")),
                    };
                    let mut utf8 = [0u8; 4];
                    out.extend_from_slice(c.encode_utf8(&mut utf8).as_bytes());
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_devharness_writes() {
        let doc = Json::Obj(vec![
            ("class".to_owned(), Json::Str("ok".to_owned())),
            ("code".to_owned(), Json::Num(200.0)),
            (
                "body".to_owned(),
                Json::Str("a \"q\" \\ \n\t\r\u{1} é 😀".to_owned()),
            ),
            (
                "list".to_owned(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-1.5e3)]),
            ),
        ]);
        assert_eq!(parse(&doc.to_string()), Ok(doc));
    }

    #[test]
    fn decodes_escapes_and_rejects_garbage() {
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00\/""#),
            Ok(Json::Str("é😀/".to_owned()))
        );
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("[1] 2").is_err());
    }
}
