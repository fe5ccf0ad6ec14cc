//! A deliberately tiny XML scanner for the generated corpora.
//!
//! The verdict model must not share code with the system it checks, so
//! it reads the generated documents with this scanner instead of
//! `xic_xml::parse_document`. The corpora it reads are the workload
//! generators' output: elements and text only, no attributes, comments,
//! entities or self-closing tags.

/// An element with its children in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct El {
    pub name: String,
    pub children: Vec<Node>,
}

/// A child: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    El(El),
    Text(String),
}

impl El {
    /// Child elements named `name`, in order.
    pub fn kids<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a El> + 'a {
        self.children.iter().filter_map(move |c| match c {
            Node::El(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// The first child element named `name`.
    pub fn kid(&self, name: &str) -> Result<&El, String> {
        self.children
            .iter()
            .find_map(|c| match c {
                Node::El(e) if e.name == name => Some(e),
                _ => None,
            })
            .ok_or_else(|| format!("<{}> has no <{name}> child", self.name))
    }

    /// The concatenated text content of the element's own text children.
    pub fn text(&self) -> String {
        self.children
            .iter()
            .filter_map(|c| match c {
                Node::Text(t) => Some(t.as_str()),
                Node::El(_) => None,
            })
            .collect()
    }
}

/// Scans `xml` into its root element.
pub fn scan(xml: &str) -> Result<El, String> {
    let mut stack: Vec<El> = vec![El {
        name: String::new(),
        children: Vec::new(),
    }];
    let mut rest = xml;
    while !rest.is_empty() {
        if let Some(tag) = rest.strip_prefix('<') {
            let end = tag.find('>').ok_or("unterminated tag")?;
            let inner = &tag[..end];
            rest = &tag[end + 1..];
            if let Some(name) = inner.strip_prefix('/') {
                let done = stack.pop().ok_or("unbalanced close tag")?;
                if done.name != name {
                    return Err(format!("</{name}> closes <{}>", done.name));
                }
                stack
                    .last_mut()
                    .ok_or("close tag at top level")?
                    .children
                    .push(Node::El(done));
            } else {
                if inner.contains(|c: char| c.is_whitespace() || c == '/') {
                    return Err(format!("unsupported tag <{inner}>"));
                }
                stack.push(El {
                    name: inner.to_string(),
                    children: Vec::new(),
                });
            }
        } else {
            let end = rest.find('<').unwrap_or(rest.len());
            let text = &rest[..end];
            rest = &rest[end..];
            if !text.trim().is_empty() {
                stack
                    .last_mut()
                    .ok_or("text outside the root")?
                    .children
                    .push(Node::Text(text.to_string()));
            }
        }
    }
    let mut top = stack
        .pop()
        .filter(|_| stack.is_empty())
        .ok_or("unclosed element")?;
    match top.children.pop() {
        Some(Node::El(root)) if top.children.is_empty() => Ok(root),
        _ => Err("expected exactly one root element".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_nested_elements_and_text() {
        let root = scan("<a><b>x</b><b>y</b><c><b>z</b></c></a>").unwrap();
        let texts: Vec<String> = root.kids("b").map(El::text).collect();
        assert_eq!(texts, ["x", "y"]);
        assert_eq!(root.kid("c").unwrap().kid("b").unwrap().text(), "z");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(scan("<a><b></a>").is_err());
        assert!(scan("<a>").is_err());
        assert!(scan("<a x=\"1\"></a>").is_err());
    }
}
