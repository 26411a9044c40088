//! A committed corpus of malformed request and reply documents, each with
//! the exact [`Display`](core::fmt::Display) of the error it decodes to.
//!
//! The text matters beyond the test: the server answers a request it cannot
//! decode with `Response::Error { message: "bad request: {e}" }`, and the
//! length of that reply sets its bus time, so one changed offset or word
//! moves simulated event counts. The corpus covers every syntax error the
//! reader reports, every protocol shape error in both directions, entity
//! and character-reference errors, trailing content, non-UTF-8 input and
//! the spliced and truncated documents a desynchronised stream delivers.

use crate::{request_envelope_from_wire, server_message_from_wire};

/// Documents sent to the server, with the error each decodes to.
const REQUESTS: &[(&[u8], &str)] = &[
    // Spliced and truncated documents, as a desynchronised stream delivers.
    (
        br#"<op type="take" client="3" seq="9" ack="8"><template><pattern kind="exact"><field type="str">job</<op type="write"><tuple/></op>"#,
        "xml parse error at byte 98: expected a name",
    ),
    (
        br#"<op type="write" client="3" seq="10" ack="9"><tuple><field type="str">job</field><field type="int">4</fi"#,
        "xml parse error at byte 104: mismatched end tag: expected </field>, found </fi>",
    ),
    (
        br#"<op type="write" client="3" seq="10" ack="9"><tuple><field type="str">job</field><field type="int">4"#,
        "xml parse error at byte 100: missing end tag </field>",
    ),
    (br#"<op type="read" timeout-ns="5"><template><pattern kind="any"/></template></op"#, "xml parse error at byte 77: expected '>'"),
    (br#"<op type="read" timeout-ns="5"><template><pattern kind="any"/></template>"#, "xml parse error at byte 73: missing end tag </op>"),
    (br#"ld type="int">4</field></tuple></op>"#, "xml parse error at byte 0: expected '<'"),
    (br#"</field></tuple></op>"#, "xml parse error at byte 1: expected a name"),
    (br#"<op type="wr"#, "xml parse error at byte 12: unterminated attribute value"),
    (br#"<op type="write""#, "xml parse error at byte 16: unterminated start tag"),
    (br#"<op type"#, "xml parse error at byte 8: expected '='"),
    (br#"<op type="write" x"#, "xml parse error at byte 18: expected '='"),
    // Every syntax error the reader reports.
    (b"", "xml parse error at byte 0: expected '<'"),
    (b"   \n", "xml parse error at byte 4: expected '<'"),
    (b"op", "xml parse error at byte 0: expected '<'"),
    (br#"<1op type="write"/>"#, "xml parse error at byte 1: expected a name"),
    (br#"<op type=write/>"#, "xml parse error at byte 9: expected a quoted attribute value"),
    (br#"<op type="a<b"/>"#, "xml parse error at byte 11: '<' is not allowed in attribute values"),
    (br#"<op type="write"/ >"#, "xml parse error at byte 17: expected '>'"),
    (br#"<op type="write"><tuple/></op x>"#, "xml parse error at byte 30: expected '>'"),
    (br#"<op type="count"><template/></op><op type="count"/>"#, "xml parse error at byte 33: trailing content after the root element"),
    (br#"<op type="count"><template/></op>trailing"#, "xml parse error at byte 33: trailing content after the root element"),
    (br#"<op type="count"><template/><!-- open</op>"#, "xml parse error at byte 28: unterminated comment"),
    (br#"<?xml version="1.0""#, "xml parse error at byte 0: unterminated processing instruction"),
    (br#"<!-- never closed <op type="count"/>"#, "xml parse error at byte 0: unterminated comment"),
    (br#"<op type="count"><!x/></op>"#, "xml parse error at byte 18: expected a name"),
    // Entity and character-reference errors, in attributes and in text.
    (br#"<op type="&bogus;"/>"#, "xml parse error at byte 18: unknown entity &bogus;"),
    (br#"<op type="write&amp"/>"#, "xml parse error at byte 20: unterminated entity reference"),
    (br#"<op type="&#xZZ;"/>"#, "xml parse error at byte 17: bad character reference &#xZZ;"),
    (
        br#"<op type="write"><tuple><field type="str">&#xZZ;</field></tuple></op>"#,
        "xml parse error at byte 48: bad character reference &#xZZ;",
    ),
    (
        br#"<op type="write"><tuple><field type="str">&#55296;</field></tuple></op>"#,
        "xml parse error at byte 50: invalid code point &#55296;",
    ),
    (
        br#"<op type="write"><tuple><field type="str">a &amp b</field></tuple></op>"#,
        "xml parse error at byte 50: unterminated entity reference",
    ),
    (
        br#"<op type="write"><tuple><field type="str">&nbsp;</field></tuple></op>"#,
        "xml parse error at byte 48: unknown entity &nbsp;",
    ),
    (br#"<op type="write"><tuple><field type="int">&#12a;</field></tuple></op>"#, "xml parse error at byte 48: bad character reference &#12a;"),
    // Non-UTF-8 input.
    (b"<op type=\"write\"><tuple><field type=\"str\">\xff</field></tuple></op>", "protocol shape error: request is neither binary nor UTF-8 XML"),
    (b"\xc3", "protocol shape error: request is neither binary nor UTF-8 XML"),
    // Protocol shape errors, in the order the checks run.
    (br#"<resp type="ack"/>"#, "protocol shape error: expected <op>, found <resp>"),
    (br#"<op/>"#, "protocol shape error: op without type"),
    (br#"<op type="bogus"/>"#, "protocol shape error: unknown op type \"bogus\""),
    (br#"<op type="write"/>"#, "protocol shape error: write op without tuple"),
    (br#"<op type="write"><template/></op>"#, "protocol shape error: write op without tuple"),
    (br#"<op type="take"/>"#, "protocol shape error: take op without template"),
    (br#"<op type="renew" lease-ns="1"/>"#, "protocol shape error: renew op without template"),
    (br#"<op type="write" client="1"><tuple/></op>"#, "protocol shape error: client/seq attributes must appear together"),
    (br#"<op type="write" seq="1"><tuple/></op>"#, "protocol shape error: client/seq attributes must appear together"),
    (br#"<op type="write" client="x" seq="1"><tuple/></op>"#, "protocol shape error: bad client \"x\": invalid digit found in string"),
    (br#"<op type="write" seq="x" client="y"><tuple/></op>"#, "protocol shape error: bad client \"y\": invalid digit found in string"),
    (
        br#"<op type="count" client="1" seq="99999999999999999999"><template/></op>"#,
        "protocol shape error: bad seq \"99999999999999999999\": number too large to fit in target type",
    ),
    (br#"<op type="count" client="1" seq="2" ack=""><template/></op>"#, "protocol shape error: bad ack \"\": cannot parse integer from empty string"),
    (br#"<op type="count" ack="-1"><template/></op>"#, "protocol shape error: bad ack \"-1\": invalid digit found in string"),
    (br#"<nope ack="z"/>"#, "protocol shape error: bad ack \"z\": invalid digit found in string"),
    (br#"<nope/>"#, "protocol shape error: expected <op>, found <nope>"),
    (br#"<op type="write" lease-ns="-1"><tuple/></op>"#, "protocol shape error: bad lease-ns \"-1\": invalid digit found in string"),
    (br#"<op type="read" timeout-ns="x"><template/></op>"#, "protocol shape error: bad timeout-ns \"x\": invalid digit found in string"),
    (br#"<op type="renew" lease-ns="1.5"><template/></op>"#, "protocol shape error: bad lease-ns \"1.5\": invalid digit found in string"),
    (
        br#"<op type="write" lease-ns="x"><tuple><field type="int">y</field></tuple></op>"#,
        "protocol shape error: bad int \"y\": invalid digit found in string",
    ),
    (
        br#"<op type="write"><tuple><field>1</field></tuple></op>"#,
        "protocol shape error: field without type",
    ),
    (
        br#"<op type="write"><tuple><field type="char">1</field></tuple></op>"#,
        "protocol shape error: unknown field type \"char\"",
    ),
    (
        br#"<op type="write"><tuple><value type="int">1</value></tuple></op>"#,
        "protocol shape error: expected <field>, found <value>",
    ),
    (
        br#"<op type="write"><tuple><field type="int"> 1</field></tuple></op>"#,
        "protocol shape error: bad int \" 1\": invalid digit found in string",
    ),
    (
        br#"<op type="write"><tuple><field type="int"/></tuple></op>"#,
        "protocol shape error: bad int \"\": cannot parse integer from empty string",
    ),
    (
        br#"<op type="write"><tuple><field type="int">99999999999999999999</field></tuple></op>"#,
        "protocol shape error: bad int \"99999999999999999999\": number too large to fit in target type",
    ),
    (
        br#"<op type="write"><tuple><field type="float">1.2.3</field></tuple></op>"#,
        "protocol shape error: bad float \"1.2.3\": invalid float literal",
    ),
    (
        br#"<op type="write"><tuple><field type="bool">yes</field></tuple></op>"#,
        "protocol shape error: bad bool \"yes\"",
    ),
    (
        br#"<op type="write"><tuple><field type="bytes">abc</field></tuple></op>"#,
        "protocol shape error: bad bytes field: odd-length hex string",
    ),
    (
        br#"<op type="write"><tuple><field type="bytes">0g</field></tuple></op>"#,
        "protocol shape error: bad bytes field: bad hex byte at 0: invalid digit found in string",
    ),
    (
        "<op type=\"write\"><tuple><field type=\"bytes\">a\u{e9}b</field></tuple></op>".as_bytes(),
        "protocol shape error: bad bytes field: hex string not ASCII-aligned",
    ),
    (
        br#"<op type="write"><tuple><field type="int">1</field><field type="int">x<!-- c -->2</field></tuple></op>"#,
        "protocol shape error: bad int \"x2\": invalid digit found in string",
    ),
    (
        br#"<op type="read"><template><field type="int">1</field></template></op>"#,
        "protocol shape error: expected <pattern>, found <field>",
    ),
    (br#"<op type="read"><template><pattern/></template></op>"#, "protocol shape error: pattern without kind"),
    (
        br#"<op type="read"><template><pattern kind="exact"/></template></op>"#,
        "protocol shape error: exact pattern without field",
    ),
    (
        br#"<op type="read"><template><pattern kind="exact"><field type="int">q</field></pattern></template></op>"#,
        "protocol shape error: bad int \"q\": invalid digit found in string",
    ),
    (
        br#"<op type="read"><template><pattern kind="type"/></template></op>"#,
        "protocol shape error: type pattern without type",
    ),
    (
        br#"<op type="read"><template><pattern kind="type" type="list"/></template></op>"#,
        "protocol shape error: unknown pattern type \"list\"",
    ),
    (
        br#"<op type="read"><template><pattern kind="some"/></template></op>"#,
        "protocol shape error: unknown pattern kind \"some\"",
    ),
    (
        br#"<op type="subscribe" kinds="written,bogus"><template/></op>"#,
        "protocol shape error: unknown event kind \"bogus\"",
    ),
    (br#"<op type="subscribe" kinds="taken"/>"#, "protocol shape error: subscribe op without template"),
    (br#"<op type="unsubscribe"/>"#, "protocol shape error: unsubscribe op without sub"),
    (br#"<op type="unsubscribe" sub=""/>"#, "protocol shape error: bad sub id: cannot parse integer from empty string"),
    // A shape error loses to any syntax error, wherever it is.
    (br#"<op type="bogus"><x></op>"#, "xml parse error at byte 24: mismatched end tag: expected </x>, found </op>"),
    (
        br#"<op type="write"><tuple><field type="int">x</field></tuple><junk a="&bad;"/></op>"#,
        "xml parse error at byte 74: unknown entity &bad;",
    ),
    (br#"<op/>junk"#, "xml parse error at byte 5: trailing content after the root element"),
    (br#"<op type="write"><tuple><field>1</field></tuple></op><"#, "xml parse error at byte 53: trailing content after the root element"),
];

/// Documents sent to a client, with the error each decodes to.
const REPLIES: &[(&[u8], &str)] = &[
    // Spliced and truncated documents.
    (
        br#"<resp type="error" client="1" seq="2">bad request: xml parse error at byte 88: expected a name</re"#,
        "xml parse error at byte 98: mismatched end tag: expected </resp>, found </re>",
    ),
    (
        br#"<resp type="entry" client="1" seq="2"><tuple><field type="str">x</field><field type="int">1</field></tuple></resp"#,
        "xml parse error at byte 113: expected '>'",
    ),
    (
        br#"<event sub="4" kind="written"><tuple><field type="str">a<resp type="ack"/>"#,
        "xml parse error at byte 74: missing end tag </field>",
    ),
    (br#"<resp type="ack"/><resp type="ack"/>"#, "xml parse error at byte 18: trailing content after the root element"),
    (br#"<resp type="count" n="3"#, "xml parse error at byte 23: unterminated attribute value"),
    // Entity and character-reference errors.
    (br#"<resp type="error">a &lt b</resp>"#, "xml parse error at byte 26: unterminated entity reference"),
    (br#"<resp type="error">&#x110000;</resp>"#, "xml parse error at byte 29: invalid code point &#x110000;"),
    (br#"<resp type="&quot"/>"#, "xml parse error at byte 18: unterminated entity reference"),
    // Non-UTF-8 input.
    (b"<resp type=\"error\">\xfe</resp>", "protocol shape error: message is neither binary nor UTF-8 XML"),
    // Protocol shape errors.
    (br#"<event kind="written"><tuple/></event>"#, "protocol shape error: event without sub"),
    (br#"<event sub="x" kind="written"><tuple/></event>"#, "protocol shape error: bad sub id: invalid digit found in string"),
    (br#"<event sub="1"><tuple/></event>"#, "protocol shape error: event without kind"),
    (br#"<event sub="1" kind="lost"><tuple/></event>"#, "protocol shape error: unknown event kind \"lost\""),
    (br#"<event sub="1" kind="taken"/>"#, "protocol shape error: event without tuple"),
    (
        br#"<event sub="1" kind="taken"><tuple><field type="int">1.5</field></tuple></event>"#,
        "protocol shape error: bad int \"1.5\": invalid digit found in string",
    ),
    (br#"<op type="write"/>"#, "protocol shape error: expected <resp>, found <op>"),
    (br#"<op type="write" client="1"/>"#, "protocol shape error: client/seq attributes must appear together"),
    (br#"<resp/>"#, "protocol shape error: resp without type"),
    (br#"<resp type="maybe"/>"#, "protocol shape error: unknown resp type \"maybe\""),
    (br#"<resp type="count"/>"#, "protocol shape error: count resp without n"),
    (br#"<resp type="count" n="-3"/>"#, "protocol shape error: bad count \"-3\": invalid digit found in string"),
    (br#"<resp type="sub-ack"/>"#, "protocol shape error: sub-ack without sub"),
    (br#"<resp type="sub-ack" sub="z"/>"#, "protocol shape error: bad sub id: invalid digit found in string"),
    (br#"<resp type="ack" seq="1"/>"#, "protocol shape error: client/seq attributes must appear together"),
    (br#"<resp type="entry" client="1" seq="x"/>"#, "protocol shape error: bad seq \"x\": invalid digit found in string"),
    (
        br#"<resp type="entry"><tuple><field type="bool">TRUE</field></tuple></resp>"#,
        "protocol shape error: bad bool \"TRUE\"",
    ),
    (
        br#"<resp type="entry"><tuple><field type="int">x</field></tuple></resp><!--"#,
        "xml parse error at byte 68: unterminated comment",
    ),
    (br#"<resp type="maybe"><x></resp>"#, "xml parse error at byte 28: mismatched end tag: expected </x>, found </resp>"),
];

fn check(corpus: &[(&[u8], &str)], decode: impl Fn(&[u8]) -> Option<String>) {
    let mut wrong = Vec::new();
    for &(doc, want) in corpus {
        let got = decode(doc);
        if got.as_deref() != Some(want) {
            wrong.push(format!(
                "{:?}\n  want {want:?}\n  got  {got:?}",
                String::from_utf8_lossy(doc)
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn malformed_requests_fail_with_pinned_errors() {
    check(REQUESTS, |doc| {
        request_envelope_from_wire(doc).err().map(|e| e.to_string())
    });
}

#[test]
fn malformed_replies_fail_with_pinned_errors() {
    check(REPLIES, |doc| {
        server_message_from_wire(doc).err().map(|e| e.to_string())
    });
}
