//! Minimal plain-HTTP `/metrics` endpoint.
//!
//! Stock Prometheus can't speak the bdrmapd wire protocol, so the
//! server optionally exposes its registry over the one HTTP exchange a
//! scraper needs: `GET /metrics` → `200 text/plain`, everything else a
//! terse error. One request per connection, `Connection: close`, no
//! keep-alive — a scrape is a single round trip. Event loop 0 serves
//! these connections next to its protocol connections.

/// Largest request head (request line + headers) we accept.
pub(crate) const MAX_HEAD: usize = 8 * 1024;

/// True once `head` holds a complete request head (blank line seen).
pub(crate) fn head_complete(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

fn response(status: &str, extra_headers: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n{extra_headers}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Build the full response bytes for one request head. `render` is only
/// invoked for a well-formed `GET /metrics`, so a rejected method never
/// pays for an exposition render.
pub(crate) fn respond(head: &[u8], render: impl FnOnce() -> String) -> Vec<u8> {
    let text = String::from_utf8_lossy(head);
    let line = text.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return response(
            "405 Method Not Allowed",
            "Allow: GET\r\n",
            "method not allowed\n",
        );
    }
    // Scrapers may append query parameters; match on the path alone.
    let path = path.split('?').next().unwrap_or("");
    if path != "/metrics" {
        return response("404 Not Found", "", "not found; try /metrics\n");
    }
    response("200 OK", "", &render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body_of(resp: &[u8]) -> &str {
        let text = std::str::from_utf8(resp).unwrap();
        text.split_once("\r\n\r\n").unwrap().1
    }

    #[test]
    fn get_metrics_renders() {
        let out = respond(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", || {
            "bdrmapd_up 1\n".to_string()
        });
        let text = std::str::from_utf8(&out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: close"));
        assert_eq!(body_of(&out), "bdrmapd_up 1\n");
    }

    #[test]
    fn non_get_is_405_with_allow() {
        let mut rendered = false;
        let out = respond(b"POST /metrics HTTP/1.1\r\n\r\n", || {
            rendered = true;
            String::new()
        });
        let text = std::str::from_utf8(&out).unwrap();
        assert!(text.starts_with("HTTP/1.1 405 "));
        assert!(text.contains("Allow: GET"));
        assert!(!rendered, "405 must not render the exposition");
    }

    #[test]
    fn other_paths_are_404() {
        let out = respond(b"GET / HTTP/1.1\r\n\r\n", String::new);
        assert!(std::str::from_utf8(&out)
            .unwrap()
            .starts_with("HTTP/1.1 404 "));
    }

    #[test]
    fn query_string_is_ignored() {
        let out = respond(b"GET /metrics?x=1 HTTP/1.1\r\n\r\n", || "m 1\n".into());
        assert!(std::str::from_utf8(&out)
            .unwrap()
            .starts_with("HTTP/1.1 200 "));
    }

    #[test]
    fn garbage_head_is_rejected() {
        let out = respond(b"\r\n\r\n", String::new);
        assert!(std::str::from_utf8(&out)
            .unwrap()
            .starts_with("HTTP/1.1 405 "));
    }

    #[test]
    fn head_completion_detects_both_line_endings() {
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.1\n\n"));
        assert!(!head_complete(b"GET / HTTP/1.1\r\n"));
    }
}
