//! Figure 1 / Figure 2 rendering from the observability event stream.
//!
//! Figure 1 of the paper is a two-column time diagram of a system call
//! requiring foreign service; Figure 2 is the four-message open protocol.
//! Both are regenerated from the request, reply and one-way events the
//! RPC engine records ([`transmissions`]) and rendered by
//! [`render_timeline`] / [`render_sequence`].

use locus_net::{ObsEvent, SendOutcome};
use locus_types::{SiteId, Ticks};

/// One message that reached the wire, as the figures draw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transmission<'a> {
    /// Virtual time at which delivery completed.
    pub at: Ticks,
    /// Sending site.
    pub from: SiteId,
    /// Receiving site.
    pub to: SiteId,
    /// Message kind label (e.g. `"OPEN req"`).
    pub kind: &'a str,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Whether the message was lost to an injected fault (it reached the
    /// wire but never its destination).
    pub dropped: bool,
}

/// The messages in `events` that reached the wire, in order: every
/// delivered or dropped request, reply and one-way attempt. An attempt
/// refused before transmission (unreachable destination, closed circuit)
/// put nothing on the wire and is skipped, as are spans and notes.
pub fn transmissions(events: &[ObsEvent]) -> Vec<Transmission<'_>> {
    events
        .iter()
        .filter_map(|ev| match ev {
            ObsEvent::Request {
                at,
                from,
                to,
                kind,
                bytes,
                outcome,
                ..
            }
            | ObsEvent::Reply {
                at,
                from,
                to,
                kind,
                bytes,
                outcome,
                ..
            }
            | ObsEvent::OneWay {
                at,
                from,
                to,
                kind,
                bytes,
                outcome,
                ..
            } => {
                let dropped = match outcome {
                    SendOutcome::Delivered => false,
                    SendOutcome::Dropped | SendOutcome::ReplyLost => true,
                    SendOutcome::Unreachable
                    | SendOutcome::CircuitClosed
                    | SendOutcome::SelfSend => return None,
                };
                Some(Transmission {
                    at: *at,
                    from: *from,
                    to: *to,
                    kind,
                    bytes: *bytes,
                    dropped,
                })
            }
            _ => None,
        })
        .collect()
}

/// Renders a message sequence in the style of the paper's Figure 2:
///
/// ```text
/// US  -> CSS   OPEN req
/// CSS -> SS    SS poll
/// ```
///
/// `role_of` maps a site to its display label (e.g. `"US"`, `"CSS"`,
/// `"SS"`); sites without a role display as `S<n>`.
pub fn render_sequence(
    msgs: &[Transmission<'_>],
    role_of: impl Fn(SiteId) -> Option<&'static str>,
) -> String {
    let label = |s: SiteId| {
        role_of(s)
            .map(str::to_owned)
            .unwrap_or_else(|| s.to_string())
    };
    let mut out = String::new();
    for m in msgs {
        out.push_str(&format!(
            "{:<4} --> {:<4} {}  ({} bytes, t={}){}\n",
            label(m.from),
            label(m.to),
            m.kind,
            m.bytes,
            m.at,
            if m.dropped { "  [DROPPED]" } else { "" }
        ));
    }
    out
}

/// Renders a two-column requesting-site / serving-site timeline in the
/// style of the paper's Figure 1.
///
/// `local` is the requesting site; every message from or to it is shown
/// on the corresponding side, and per-phase annotations are taken from
/// the message kinds.
pub fn render_timeline(msgs: &[Transmission<'_>], local: SiteId) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<38}| {:<38}\n",
        "Requesting Site", "Serving Site"
    ));
    out.push_str(&format!("{:-<38}+{:-<39}\n", "", ""));
    for m in msgs {
        if m.from == local {
            if m.dropped {
                out.push_str(&format!(
                    "{:<38}|\n",
                    format!("t={} send `{}`  [DROPPED]", m.at, m.kind)
                ));
            } else {
                out.push_str(&format!(
                    "{:<38}|\n",
                    format!("t={} send `{}`", m.at, m.kind)
                ));
                out.push_str(&format!("{:<38}|   (msg crosses network)\n", ""));
            }
        } else if m.to == local {
            // The serving side sends the reply; unless it was lost, it
            // crosses back and *arrives* at the requesting site — the
            // left column resumes, as in the paper's Figure 1.
            if m.dropped {
                out.push_str(&format!(
                    "{:<38}| t={} reply `{}` sent  [DROPPED]\n",
                    "", m.at, m.kind
                ));
            } else {
                out.push_str(&format!("{:<38}| t={} reply `{}` sent\n", "", m.at, m.kind));
                out.push_str(&format!("{:<38}|\n", "   (msg crosses network)"));
                out.push_str(&format!(
                    "{:<38}|\n",
                    format!("t={} reply `{}` arrives", m.at, m.kind)
                ));
            }
        } else {
            out.push_str(&format!(
                "{:<38}| t={} internal `{}`{}\n",
                "",
                m.at,
                m.kind,
                if m.dropped { "  [DROPPED]" } else { "" }
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(from: u32, to: u32, kind: &'static str) -> Transmission<'static> {
        Transmission {
            at: Ticks::micros(1),
            from: SiteId(from),
            to: SiteId(to),
            kind,
            bytes: 8,
            dropped: false,
        }
    }

    /// The projection keeps the attempts that reached the wire, lost
    /// ones flagged, and nothing else.
    #[test]
    fn transmissions_keep_what_reached_the_wire() {
        let attempt = |outcome| ObsEvent::OneWay {
            span: 1,
            at: Ticks::micros(3),
            from: SiteId(0),
            to: SiteId(1),
            kind: "WRITE page".to_owned(),
            bytes: 8,
            outcome,
        };
        let events = vec![
            ObsEvent::SpanOpen {
                id: 1,
                parent: 0,
                service: "fs".to_owned(),
                op: "write".to_owned(),
                site: SiteId(0),
                at: Ticks::micros(1),
            },
            attempt(SendOutcome::CircuitClosed),
            attempt(SendOutcome::Unreachable),
            attempt(SendOutcome::Dropped),
            attempt(SendOutcome::Delivered),
            ObsEvent::Reply {
                span: 1,
                at: Ticks::micros(4),
                from: SiteId(1),
                to: SiteId(0),
                kind: "READ resp".to_owned(),
                bytes: 16,
                outcome: SendOutcome::ReplyLost,
            },
            ObsEvent::SpanClose {
                id: 1,
                outcome: "ok".to_owned(),
                at: Ticks::micros(5),
            },
        ];
        let msgs = transmissions(&events);
        let flags: Vec<(&str, bool)> = msgs.iter().map(|m| (m.kind, m.dropped)).collect();
        assert_eq!(
            flags,
            vec![
                ("WRITE page", true),
                ("WRITE page", false),
                ("READ resp", true)
            ]
        );
        assert_eq!(msgs[2].bytes, 16);
    }

    #[test]
    fn dropped_events_are_flagged_in_rendering() {
        let mut lost = msg(0, 1, "OPEN req");
        lost.dropped = true;
        let txt = render_sequence(&[lost], |_| None);
        assert!(txt.contains("[DROPPED]"));
    }

    #[test]
    fn sequence_rendering_uses_roles() {
        let msgs = vec![msg(0, 1, "OPEN req"), msg(1, 2, "SS poll")];
        let txt = render_sequence(&msgs, |s| match s.0 {
            0 => Some("US"),
            1 => Some("CSS"),
            2 => Some("SS"),
            _ => None,
        });
        assert!(txt.contains("US   --> CSS"));
        assert!(txt.contains("CSS  --> SS"));
    }

    #[test]
    fn timeline_mentions_both_sides() {
        let msgs = vec![msg(0, 1, "READ req"), msg(1, 0, "READ resp")];
        let txt = render_timeline(&msgs, SiteId(0));
        assert!(txt.contains("Requesting Site"));
        assert!(txt.contains("send `READ req`"));
        assert!(txt.contains("reply `READ resp`"));
    }

    /// Regression: the reply used to appear only in the serving-site
    /// column ("reply sent") and never arrive back on the requesting
    /// side — the Figure 1 round trip looked one-way.
    #[test]
    fn timeline_renders_the_reply_arrival_at_the_requesting_site() {
        let msgs = vec![msg(0, 1, "READ req"), msg(1, 0, "READ resp")];
        let txt = render_timeline(&msgs, SiteId(0));
        let reply_arrives = txt
            .lines()
            .find(|l| l.contains("reply `READ resp` arrives"))
            .expect("the reply must arrive in the left column");
        let cut = reply_arrives.find('|').expect("two-column layout");
        assert!(
            reply_arrives[..cut].contains("arrives"),
            "arrival renders on the requesting (left) side: {reply_arrives:?}"
        );
        assert!(
            reply_arrives[cut + 1..].trim().is_empty(),
            "the serving column stays empty on the arrival line"
        );
    }

    /// A lost reply must not render an arrival — it is flagged instead.
    #[test]
    fn timeline_flags_dropped_messages_and_omits_their_arrival() {
        let mut lost = msg(1, 0, "READ resp");
        lost.dropped = true;
        let mut lost_req = msg(0, 1, "READ req");
        lost_req.dropped = true;
        let txt = render_timeline(&[lost_req, lost], SiteId(0));
        assert_eq!(txt.matches("[DROPPED]").count(), 2);
        assert!(!txt.contains("arrives"));
        assert!(!txt.contains("(msg crosses network)"));
    }

    /// Pins the exact two-column format the `fig1_syscall_trace` bench
    /// prints (a clean request/reply round trip).
    #[test]
    fn timeline_format_is_pinned() {
        let mut req = msg(0, 1, "READ req");
        req.at = Ticks::micros(2);
        let mut resp = msg(1, 0, "READ resp");
        resp.at = Ticks::micros(5);
        let txt = render_timeline(&[req, resp], SiteId(0));
        let want = concat!(
            "Requesting Site                       | Serving Site                          \n",
            "--------------------------------------+---------------------------------------\n",
            "t=2us send `READ req`                 |\n",
            "                                      |   (msg crosses network)\n",
            "                                      | t=5us reply `READ resp` sent\n",
            "   (msg crosses network)              |\n",
            "t=5us reply `READ resp` arrives       |\n",
        );
        assert_eq!(txt, want);
    }
}
