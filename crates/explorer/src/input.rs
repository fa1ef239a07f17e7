//! Text input generation for `TextInput` events.
//!
//! DroidRacer's UI Explorer "can determine the required format of the input
//! (e.g., an email address) by inspecting flags associated with text fields.
//! It supplies text of appropriate format from a manually constructed set of
//! data inputs" (§5). We infer the format from the widget name (our stand-in
//! for the input-type flags) and draw from fixed sample sets.

use std::fmt;

/// The input format a text field expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TextFormat {
    /// Free-form text.
    #[default]
    Plain,
    /// An email address.
    Email,
    /// A phone number.
    Phone,
    /// A numeric value.
    Number,
    /// A URL.
    Url,
    /// A password.
    Password,
}

impl TextFormat {
    /// Infers the expected format from a widget's name, mimicking the
    /// input-type flag inspection of the real explorer.
    pub fn infer(widget_name: &str) -> TextFormat {
        let lower = widget_name.to_lowercase();
        if lower.contains("mail") {
            TextFormat::Email
        } else if lower.contains("phone") || lower.contains("tel") {
            TextFormat::Phone
        } else if lower.contains("url") || lower.contains("link") || lower.contains("site") {
            TextFormat::Url
        } else if lower.contains("pass") || lower.contains("pin") {
            TextFormat::Password
        } else if lower.contains("num") || lower.contains("count") || lower.contains("age") {
            TextFormat::Number
        } else {
            TextFormat::Plain
        }
    }

    /// The manually constructed sample set for this format.
    pub fn samples(self) -> &'static [&'static str] {
        match self {
            TextFormat::Plain => &["hello", "lorem ipsum", "droid racer", ""],
            TextFormat::Email => &[
                concat!("user", "@", "example.com"),
                concat!("test.account", "@", "mail.example.org"),
            ],
            TextFormat::Phone => &["+1-555-0100", "080-2293-2368"],
            TextFormat::Number => &["0", "42", "-7", "3.14"],
            TextFormat::Url => &["http://example.org", "https://dev.example/page?q=1"],
            TextFormat::Password => &["hunter2", "correct horse battery staple"],
        }
    }

    /// Deterministically picks the `n`-th sample (wrapping).
    pub fn sample(self, n: usize) -> &'static str {
        let s = self.samples();
        s[n % s.len()]
    }
}

impl fmt::Display for TextFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TextFormat::Plain => "plain",
            TextFormat::Email => "email",
            TextFormat::Phone => "phone",
            TextFormat::Number => "number",
            TextFormat::Url => "url",
            TextFormat::Password => "password",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_from_names() {
        assert_eq!(TextFormat::infer("emailField"), TextFormat::Email);
        assert_eq!(TextFormat::infer("userMail"), TextFormat::Email);
        assert_eq!(TextFormat::infer("phoneNumber"), TextFormat::Phone);
        assert_eq!(TextFormat::infer("ageInput"), TextFormat::Number);
        assert_eq!(TextFormat::infer("homepageUrl"), TextFormat::Url);
        assert_eq!(TextFormat::infer("passwordBox"), TextFormat::Password);
        assert_eq!(TextFormat::infer("noteBody"), TextFormat::Plain);
    }

    #[test]
    fn samples_are_nonempty_and_format_appropriate() {
        for fmt in [
            TextFormat::Plain,
            TextFormat::Email,
            TextFormat::Phone,
            TextFormat::Number,
            TextFormat::Url,
            TextFormat::Password,
        ] {
            assert!(!fmt.samples().is_empty());
        }
        assert!(TextFormat::Email.samples().iter().all(|s| s.contains('@')));
        assert!(TextFormat::Url
            .samples()
            .iter()
            .all(|s| s.starts_with("http")));
    }

    #[test]
    fn sample_wraps_deterministically() {
        let n = TextFormat::Email.samples().len();
        assert_eq!(TextFormat::Email.sample(0), TextFormat::Email.sample(n));
        assert_eq!(TextFormat::Email.sample(1), TextFormat::Email.sample(n + 1));
    }
}
