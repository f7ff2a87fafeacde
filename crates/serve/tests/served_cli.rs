//! Command-line tests of the `served` binary. A command line parsed by
//! mistake would start a daemon, so a run still going after 10 s is
//! killed and fails the test.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SERVED: &str = env!("CARGO_BIN_EXE_served");

/// Runs `program` with `args`; returns its exit code, stdout and stderr.
fn run(program: impl AsRef<Path>, args: &[&str]) -> (Option<i32>, String, String) {
    let program = program.as_ref();
    let mut child = Command::new(program)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collect output");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn usage_errors_name_the_problem_and_print_usage() {
    for (args, first_line) in [
        (&["--worker", "2"][..], "unknown flag \"--worker\" (did you mean --workers?)"),
        (&["--workers"], "--workers needs a value"),
        (&["--resume"], "--resume requires --journal PATH"),
    ] {
        let (code, stdout, stderr) = run(SERVED, args);
        assert_eq!((code, stdout.as_str()), (Some(1), ""), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().next(), Some(first_line), "{stderr}");
        assert!(stderr.contains("usage: served"), "{stderr}");
    }
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for flag in ["--help", "-h"] {
        let (code, stdout, stderr) = run(SERVED, &[flag]);
        assert_eq!((code, stderr.as_str()), (Some(0), ""), "{flag}");
        assert!(stdout.starts_with("usage: served"), "{stdout}");
        for documented in ["--serve ADDR", "--journal PATH", "at most 1024", "at most 65536"] {
            assert!(stdout.contains(documented), "{documented}: {stdout}");
        }
    }
}

/// The durability flags are declared once for both binaries, so a bad
/// value reads the same whichever binary rejects it. `repro` is found
/// next to `served`, where a workspace build puts both.
#[test]
fn shared_flag_errors_read_the_same_in_repro_and_served() {
    let repro = Path::new(SERVED).with_file_name(format!("repro{}", std::env::consts::EXE_SUFFIX));
    assert!(repro.exists(), "{} is not built; build the workspace", repro.display());
    for args in [["--timeout-ms", "0"], ["--retries", "-1"]] {
        let (code, _, from_served) = run(SERVED, &args);
        let (_, _, from_repro) = run(&repro, &args);
        assert_eq!(code, Some(1), "{args:?}");
        assert!(from_served.starts_with(args[0]), "{from_served}");
        assert_eq!(from_served.lines().next(), from_repro.lines().next(), "{args:?}");
    }
}
