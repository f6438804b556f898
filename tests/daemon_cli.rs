//! End-to-end tests of `moteur daemon`: the newline-delimited JSON
//! control protocol driven over stdin/stdout exactly the way a client
//! process would, plus the `--check-protocol` self-test and the unix
//! socket transport.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn moteur() -> Command {
    Command::new(env!("CARGO_BIN_EXE_moteur"))
}

/// A tiny one-processor workflow, escaped for embedding in a JSON
/// string field.
fn tiny_workflow_json() -> String {
    r#"<scufl name="tiny">
  <source name="s" bytes="64"/>
  <processor name="p" compute="5">
    <executable name="x">
      <access type="URL"><path value="http://h"/></access>
      <value value="x"/>
      <input name="in" option="-i"><access type="GFN"/></input>
      <output name="out" option="-o"><access type="GFN"/></output>
    </executable>
    <outputsize slot="out" bytes="10"/>
  </processor>
  <sink name="k"/>
  <link from="s:out" to="p:in"/>
  <link from="p:out" to="k:in"/>
</scufl>"#
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn tiny_inputs_json(n: usize) -> String {
    let items: String = (0..n)
        .map(|j| format!(r#"<item type="file" gfn="gfn://x/i{j}" bytes="64"/>"#))
        .collect();
    format!(r#"<inputdata><input name="s">{items}</input></inputdata>"#).replace('"', "\\\"")
}

fn submit_line(tenant: &str, n_data: usize) -> String {
    format!(
        r#"{{"schema":"moteur/daemon/v1","op":"submit","tenant":"{tenant}","workflow":"{}","inputs":"{}"}}"#,
        tiny_workflow_json(),
        tiny_inputs_json(n_data)
    )
}

fn req(op: &str) -> String {
    format!(r#"{{"schema":"moteur/daemon/v1","op":"{op}"}}"#)
}

/// Feed a whole session to `moteur daemon` over stdin and collect the
/// response lines.
fn run_session(lines: &[String]) -> Vec<String> {
    let mut child = moteur()
        .arg("daemon")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut stdin = child.stdin.take().expect("stdin piped");
    for line in lines {
        writeln!(stdin, "{line}").expect("write request");
    }
    drop(stdin); // EOF ends the session even without a shutdown op
    let out = child.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "daemon failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 responses")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn submit_status_cancel_shutdown_round_trip() {
    let responses = run_session(&[
        submit_line("alice", 2),
        req("drain"),
        r#"{"schema":"moteur/daemon/v1","op":"status","id":1}"#.to_string(),
        submit_line("bob", 8),
        r#"{"schema":"moteur/daemon/v1","op":"cancel","id":2}"#.to_string(),
        req("list"),
        req("metrics"),
        req("shutdown"),
    ]);
    assert_eq!(responses.len(), 8, "{responses:?}");
    assert!(responses[0].contains(r#""op":"submit","ok":true,"id":1"#));
    assert!(responses[1].contains(r#""op":"drain","ok":true,"completed":1"#));
    assert!(responses[2].contains(r#""state":"succeeded""#));
    assert!(responses[3].contains(r#""id":2"#));
    assert!(responses[4].contains(r#""op":"cancel","ok":true"#));
    assert!(responses[5].contains(r#""state":"cancelled""#));
    assert!(responses[6].contains(r#""schema":"moteur/daemon/v1","op":"metrics","ok":true"#));
    assert!(responses[6].contains(r#""succeeded":1"#));
    assert!(responses[6].contains(r#""cancelled":1"#));
    assert!(
        responses[6].contains("moteur_daemon_instances"),
        "openmetrics exposition inlined"
    );
    assert!(responses[7].contains(r#""op":"shutdown","ok":true"#));
}

#[test]
fn status_json_is_byte_stable_across_sessions() {
    let session = vec![
        submit_line("a", 2),
        req("drain"),
        r#"{"schema":"moteur/daemon/v1","op":"status","id":1}"#.to_string(),
    ];
    let first = run_session(&session);
    let second = run_session(&session);
    assert_eq!(first, second, "responses drifted between daemon runs");
    let status = &first[2];
    assert!(
        status.starts_with(
            r#"{"schema":"moteur/daemon/v1","op":"status","ok":true,"instance":{"id":1,"tenant":"a","workflow":"tiny","state":"succeeded","submitted_at":0,"first_job_at":0,"#
        ),
        "status field order is part of the protocol: {status}"
    );
}

#[test]
fn a_flooding_tenant_cannot_starve_anothers_admission() {
    let mut lines: Vec<String> = (0..50).map(|_| submit_line("flood", 2)).collect();
    lines.push(submit_line("vip", 2));
    lines.push(r#"{"schema":"moteur/daemon/v1","op":"status","id":51}"#.to_string());
    lines.push(req("drain"));
    lines.push(req("metrics"));
    let responses = run_session(&lines);
    // The vip submission is admitted immediately (its tenant has free
    // workflow slots) so its first job fires at submission time even
    // with 50 flood workflows already in the daemon.
    let vip = &responses[51];
    assert!(vip.contains(r#""tenant":"vip""#), "{vip}");
    let submitted = field_num(vip, "submitted_at");
    let first_job = field_num(vip, "first_job_at");
    assert_eq!(submitted, first_job, "vip waited behind the flood: {vip}");
    assert!(
        responses[53].contains(r#""succeeded":51"#),
        "{}",
        responses[53]
    );
}

/// Pull a numeric field out of a response line without a JSON parser.
fn field_num(line: &str, key: &str) -> f64 {
    let tagged = format!("\"{key}\":");
    let rest = &line[line.find(&tagged).expect(key) + tagged.len()..];
    let end = rest.find([',', '}']).expect("number terminated by , or }");
    rest[..end].parse().expect("numeric field")
}

#[test]
fn malformed_and_unknown_requests_get_error_responses() {
    let responses = run_session(&[
        "not json at all".to_string(),
        r#"{"schema":"moteur/daemon/v2","op":"list"}"#.to_string(),
        r#"{"schema":"moteur/daemon/v1","op":"levitate"}"#.to_string(),
        r#"{"schema":"moteur/daemon/v1","op":"status","id":99}"#.to_string(),
    ]);
    assert_eq!(responses.len(), 4);
    for r in &responses[..3] {
        assert!(r.contains(r#""ok":false"#), "{r}");
    }
    assert!(responses[3].contains(r#""ok":false"#), "{}", responses[3]);
    assert!(
        responses[3].contains("unknown instance"),
        "{}",
        responses[3]
    );
}

/// Regression: a submit whose optional fields were present but
/// mistyped used to be enacted with the defaults and answer `"ok":true`.
#[test]
fn mistyped_optional_submit_fields_are_refused_and_the_session_continues() {
    let mistyped = submit_line("alice", 1).replacen(
        "{",
        r#"{"max_retries":"five","continue_on_error":"yes","config":7,"#,
        1,
    );
    let responses = run_session(&[mistyped, submit_line("alice", 1), req("list")]);
    assert_eq!(responses.len(), 3, "{responses:?}");
    assert!(responses[0].contains(r#""ok":false"#), "{}", responses[0]);
    assert!(
        responses[0].contains("invalid `config`"),
        "{}",
        responses[0]
    );
    // Nothing was enacted for the refused line: the next submit is id 1.
    assert!(
        responses[1].contains(r#""op":"submit","ok":true,"id":1"#),
        "{}",
        responses[1]
    );
    assert_eq!(responses[2].matches(r#""tenant":"alice""#).count(), 1);
}

/// Regression: the JSON parser used to recurse once per `[` with no
/// bound, so one hostile line aborted the whole daemon with a stack
/// overflow instead of costing its sender an error response.
#[test]
fn deeply_nested_request_gets_an_error_response_and_the_session_continues() {
    let responses = run_session(&["[".repeat(300_000), req("metrics")]);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(responses[0].contains(r#""ok":false"#), "{}", responses[0]);
    assert!(responses[0].contains("nesting"), "{}", responses[0]);
    assert!(
        responses[1].contains(r#""op":"metrics","ok":true"#),
        "{}",
        responses[1]
    );
}

/// A workflow nested far past the XML parser's depth limit is refused
/// in the response; it used to overflow the daemon's stack and abort it.
#[test]
fn deeply_nested_workflow_gets_an_error_response_and_the_session_continues() {
    let depth = 100_000;
    let workflow = "<a>".repeat(depth) + &"</a>".repeat(depth);
    let submit = format!(
        r#"{{"schema":"moteur/daemon/v1","op":"submit","tenant":"t","workflow":"{workflow}","inputs":"{}"}}"#,
        tiny_inputs_json(1)
    );
    let responses = run_session(&[submit, req("metrics")]);
    assert_eq!(responses.len(), 2, "{responses:?}");
    assert!(responses[0].contains(r#""ok":false"#), "{}", responses[0]);
    assert!(
        responses[0].contains("nested deeper than 128 levels"),
        "{}",
        responses[0]
    );
    assert!(
        responses[1].contains(r#""op":"metrics","ok":true"#),
        "{}",
        responses[1]
    );
}

/// Regression: a stock `json.dumps` client ASCII-escapes astral
/// characters as surrogate pairs, which the parser used to reject.
#[test]
fn ascii_escaped_astral_characters_are_accepted_and_the_session_continues() {
    let session = [submit_line(r"\ud83d\ude00", 2), req("drain"), req("list")];
    let responses = run_session(&session);
    assert_eq!(responses.len(), 3, "{responses:?}");
    assert!(responses[0].contains(r#""op":"submit","ok":true,"id":1"#));
    assert!(
        responses[2].contains("\"tenant\":\"\u{1F600}\""),
        "{}",
        responses[2]
    );
}

#[test]
fn check_protocol_self_test_passes() {
    let out = moteur()
        .args(["daemon", "--check-protocol"])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("moteur/daemon/v1 protocol ok"), "{stdout}");
    for op in [
        "submit", "status", "cancel", "list", "metrics", "drain", "shutdown",
    ] {
        assert!(stdout.contains(op), "missing {op} in: {stdout}");
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_serves_a_session() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("moteur-daemon-sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let sock = dir.join("moteur.sock");
    let mut child = moteur()
        .args(["daemon", "--socket", sock.to_str().expect("utf-8 path")])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");

    // Wait for the listener to come up.
    let mut stream = None;
    for _ in 0..200 {
        match UnixStream::connect(&sock) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let stream = stream.expect("daemon socket came up");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    let mut line = String::new();
    writeln!(writer, "{}", submit_line("alice", 2)).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""op":"submit","ok":true,"id":1"#), "{line}");
    line.clear();
    writeln!(writer, "{}", req("drain")).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""completed":1"#), "{line}");
    line.clear();
    writeln!(writer, "{}", req("shutdown")).unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""op":"shutdown","ok":true"#), "{line}");

    let status = child.wait().expect("daemon exits after shutdown");
    assert!(status.success());
    assert!(!sock.exists(), "socket file cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}
