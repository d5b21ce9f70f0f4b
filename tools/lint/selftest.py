#!/usr/bin/env python3
"""Self-test for tools/vodrep_lint.

Every lint rule has a fixture tree under tests/lint_selftest/<rule>/ holding
one deliberately-bad file per path scope the rule must cover.  For each rule
this harness runs the driver with `--root <fixture> --rules <rule>` and
asserts that it (a) exits non-zero and (b) names the rule and every
offending file in its output.  It then re-runs
the driver over the same fixture with the violating line waived via
`// vodrep-lint: allow(<rule>)` to prove suppressions work, and finally
checks the clean-tree contract (exit 0 on a violation-free tree).

If a rule ever regresses to matching nothing — a botched regex, a path-scope
typo — this test is what catches it; the clean-tree ctest alone would keep
passing silently.
"""

import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))) \
    if os.path.basename(os.path.dirname(os.path.abspath(__file__))) == "lint" \
    else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "tools", "vodrep_lint")
FIXTURES = os.path.join(REPO, "tests", "lint_selftest")

# rule -> (fixture-relative bad files, substring that must appear in the
# violation message)
EXPECTED = {
    "unordered-iteration": (["src/core/bad_unordered.cc"], "deterministic"),
    "rng-construction": (["src/sim/bad_rng.cc"], "src/util/rng"),
    "raw-clock": (["src/sim/bad_clock.cc"], "clock shim"),
    "dcheck-side-effects": (["src/core/bad_dcheck.cc"], "release builds"),
    # The Eq. 1-3 objective code and the edge tier's byte accounting.
    "unordered-float-reduction": (
        ["src/core/objective.cc", "src/sim/prefix_cache.cc"], "associative"),
}


def run_lint(*argv):
    return subprocess.run([sys.executable, LINT, *argv],
                          capture_output=True, text=True)


def fail(msg):
    print("FAIL: %s" % msg)
    sys.exit(1)


def check_rule_fires(rule, bad_files, message_probe):
    fixture = os.path.join(FIXTURES, rule)
    if not os.path.isdir(fixture):
        fail("missing fixture directory %s" % fixture)
    proc = run_lint("--root", fixture, "--rules", rule)
    if proc.returncode != 1:
        fail("rule %s: expected exit 1 on its fixture, got %d\nstdout:\n%s"
             "\nstderr:\n%s" % (rule, proc.returncode, proc.stdout,
                                proc.stderr))
    for bad_file in bad_files:
        pattern = r"%s:\d+: \[%s\]" % (re.escape(bad_file), re.escape(rule))
        if not re.search(pattern, proc.stdout):
            fail("rule %s: output does not name the rule and file (wanted "
                 "/%s/)\nstdout:\n%s" % (rule, pattern, proc.stdout))
        print("ok: %s fires on %s" % (rule, bad_file))
    if message_probe not in proc.stdout:
        fail("rule %s: violation message lost its rationale (wanted "
             "substring %r)\nstdout:\n%s" % (rule, message_probe,
                                             proc.stdout))


def check_waiver(rule, bad_files):
    """Copy the fixture, append the allow() comment to every reported line,
    and assert the driver now exits 0."""
    fixture = os.path.join(FIXTURES, rule)
    proc = run_lint("--root", fixture, "--rules", rule)
    with tempfile.TemporaryDirectory(prefix="vodrep_lint_waiver_") as tmp:
        for bad_file in bad_files:
            lines = {int(m.group(1)) for m in re.finditer(
                r"^%s:(\d+): \[%s\]" % (re.escape(bad_file),
                                         re.escape(rule)),
                proc.stdout, re.MULTILINE)}
            src = os.path.join(fixture, bad_file)
            dst = os.path.join(tmp, bad_file)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            with open(src, encoding="utf-8") as fh:
                content = fh.read().splitlines(keepends=True)
            for ln in lines:
                content[ln - 1] = content[ln - 1].rstrip("\n") + \
                    "  // vodrep-lint: allow(%s) selftest waiver\n" % rule
            with open(dst, "w", encoding="utf-8") as fh:
                fh.writelines(content)
        waived = run_lint("--root", tmp, "--rules", rule)
        if waived.returncode != 0:
            fail("rule %s: allow(%s) waiver did not suppress the violation"
                 "\nstdout:\n%s" % (rule, rule, waived.stdout))
    print("ok: %s respects allow() waivers" % rule)


def check_clean_tree_contract():
    with tempfile.TemporaryDirectory(prefix="vodrep_lint_clean_") as tmp:
        os.makedirs(os.path.join(tmp, "src", "core"))
        with open(os.path.join(tmp, "src", "core", "fine.cc"), "w",
                  encoding="utf-8") as fh:
            fh.write("// A std::unordered_map mention in a comment and one\n"
                     "// in a string must not trip the scrubber:\n"
                     "const char* kDoc = \"std::unordered_map<int,int> m;\";\n"
                     "int answer() { return 42; }\n")
        proc = run_lint("--root", tmp)
        if proc.returncode != 0:
            fail("clean tree: expected exit 0, got %d\nstdout:\n%s"
                 % (proc.returncode, proc.stdout))
    print("ok: clean tree (with comment/string decoys) exits 0")


def check_unknown_rule_is_usage_error():
    proc = run_lint("--rules", "no-such-rule")
    if proc.returncode != 2:
        fail("unknown rule: expected exit 2, got %d" % proc.returncode)
    print("ok: unknown rule name is a usage error (exit 2)")


def main():
    if not os.path.isfile(LINT):
        fail("driver not found at %s" % LINT)
    for rule, (bad_files, probe) in sorted(EXPECTED.items()):
        check_rule_fires(rule, bad_files, probe)
        check_waiver(rule, bad_files)
    check_clean_tree_contract()
    check_unknown_rule_is_usage_error()
    print("vodrep_lint selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
