//! End-to-end tests of the `egg-sync-cli` binary.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_egg-sync-cli"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("egg_sync_cli_tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn generate_then_cluster_roundtrip() {
    let data_path = temp_path("points.csv");
    let labels_path = temp_path("labels.csv");

    let out = cli()
        .args([
            "generate",
            "--n",
            "400",
            "--clusters",
            "3",
            "--std",
            "3.0",
            "--output",
            data_path.to_str().unwrap(),
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cli()
        .args([
            "cluster",
            "--input",
            data_path.to_str().unwrap(),
            "--epsilon",
            "0.05",
            "--output",
            labels_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("400 points"), "stdout: {stdout}");
    assert!(stdout.contains("converged"), "stdout: {stdout}");

    // output CSV has the label column appended
    let written = std::fs::read_to_string(&labels_path).expect("labels file");
    let first = written.lines().next().expect("non-empty output");
    assert_eq!(first.split(',').count(), 3); // x, y, label
    assert_eq!(written.lines().count(), 400);
}

#[test]
fn cluster_with_explicit_algorithm() {
    let data_path = temp_path("points_sync.csv");
    cli()
        .args([
            "generate",
            "--n",
            "150",
            "--output",
            data_path.to_str().unwrap(),
        ])
        .output()
        .expect("generate");
    for algo in ["sync", "fsync", "mpsync", "exact"] {
        let out = cli()
            .args([
                "cluster",
                "--input",
                data_path.to_str().unwrap(),
                "--epsilon",
                "0.05",
                "--algorithm",
                algo,
            ])
            .output()
            .expect("run cluster");
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn outliers_subcommand_reports() {
    let data_path = temp_path("points_outliers.csv");
    // two tight groups plus one isolated point
    let mut csv = String::new();
    for i in 0..30 {
        csv.push_str(&format!("0.2,{}\n", 0.2 + i as f64 * 1e-3));
        csv.push_str(&format!("0.8,{}\n", 0.8 + i as f64 * 1e-3));
    }
    csv.push_str("0.5,0.02\n");
    std::fs::write(&data_path, csv).expect("write csv");
    let out = cli()
        .args([
            "outliers",
            "--input",
            data_path.to_str().unwrap(),
            "--epsilon",
            "0.05",
            "--no-normalize",
            "--threshold",
            "0.99",
        ])
        .output()
        .expect("run outliers");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 outliers"), "stdout: {stdout}");
    assert!(stdout.contains("point     60"), "stdout: {stdout}");
}

#[test]
fn missing_arguments_fail_cleanly() {
    let out = cli().args(["cluster"]).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--input"), "stderr: {stderr}");

    let out = cli().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn help_prints_usage() {
    let out = cli().args(["--help"]).output().expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn bad_csv_is_reported() {
    let data_path = temp_path("bad.csv");
    std::fs::write(&data_path, "1,2\n3,oops\n").expect("write");
    let out = cli()
        .args([
            "cluster",
            "--input",
            data_path.to_str().unwrap(),
            "--epsilon",
            "0.05",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
}

/// A 200-point file from `generate`, with its first field replaced.
fn generated_with_first_field(name: &str, first: &str) -> PathBuf {
    let path = temp_path(name);
    let out = cli()
        .args(["generate", "--n", "200", "--output", path.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&path).expect("read csv");
    let (_, rest) = csv.split_once(',').expect("two fields");
    std::fs::write(&path, format!("{first},{rest}")).expect("write csv");
    path
}

#[test]
fn non_finite_coordinates_are_refused() {
    for field in ["nan", "inf"] {
        let path = generated_with_first_field(&format!("non_finite_{field}.csv"), field);
        for command in ["cluster", "outliers"] {
            let out = cli()
                .args([
                    command,
                    "--input",
                    path.to_str().unwrap(),
                    "--epsilon",
                    "0.05",
                ])
                .output()
                .expect("run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {field}: {stderr}");
            assert!(stderr.contains("line 1"), "{command} {field}: {stderr}");
        }
    }
}

#[test]
fn invalid_epsilon_is_a_usage_error() {
    let path = temp_path("epsilon_checks.csv");
    std::fs::write(&path, "0.1,0.1\n0.2,0.2\n0.8,0.8\n").expect("write csv");
    for command in ["cluster", "outliers"] {
        for epsilon in ["0", "-0.05", "nan", "inf", "-inf"] {
            let out = cli()
                .args([
                    command,
                    "--input",
                    path.to_str().unwrap(),
                    "--epsilon",
                    epsilon,
                ])
                .output()
                .expect("run");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {epsilon}: {stderr}");
            assert!(
                stderr.contains("--epsilon"),
                "{command} {epsilon}: {stderr}"
            );
        }
    }
}

#[test]
fn invalid_generate_arguments_are_usage_errors() {
    let path = temp_path("generate_checks.csv");
    for (flag, value) in [
        ("--dim", "0"),
        ("--clusters", "0"),
        ("--std", "-1"),
        ("--std", "nan"),
        ("--std", "inf"),
    ] {
        let out = cli()
            .args([
                "generate",
                "--n",
                "50",
                flag,
                value,
                "--output",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
    }
}

#[test]
fn non_finite_threshold_is_a_usage_error() {
    let path = temp_path("threshold_checks.csv");
    std::fs::write(&path, "0.1,0.1\n0.2,0.2\n0.8,0.8\n").expect("write csv");
    let out = cli()
        .args([
            "outliers",
            "--input",
            path.to_str().unwrap(),
            "--epsilon",
            "0.05",
            "--threshold",
            "nan",
        ])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--threshold"), "{stderr}");
}
