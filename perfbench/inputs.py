"""Seeded inputs for the three workloads.

Every input comes from ``random.Random(seed)``: synthetic git repositories
(written in one ``git fast-import`` stream each), issue instance files,
generated and reference patches, and the edit scripts the responder
follows. The structure of each workload (file counts, line counts, words
per line, which calls QA rejects) is fixed; the seed only picks the words
and which files play which part, so LLM call counts are the same for every
seed and prompt word counts nearly so.
"""

from __future__ import annotations

import difflib
import json
import random
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from responder import Edit, IssueScript

GIT_ENV = {
    "GIT_CONFIG_GLOBAL": "/dev/null",
    "GIT_CONFIG_NOSYSTEM": "1",
    "GIT_TERMINAL_PROMPT": "0",
    "GIT_AUTHOR_NAME": "bench",
    "GIT_AUTHOR_EMAIL": "bench@example.invalid",
    "GIT_COMMITTER_NAME": "bench",
    "GIT_COMMITTER_EMAIL": "bench@example.invalid",
}

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "shi", "pe", "dra",
              "gu", "fen", "zo", "bri", "qua", "tel", "mor", "yas", "pin",
              "cor", "hul", "dex", "nix", "sab")


def git(args: list[str], cwd: Path, stdin: bytes | None = None) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, input=stdin,
                          capture_output=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: "
                           f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout.decode()


def write_repo(repo: Path, commits: list[dict[str, str]]) -> list[str]:
    """Create ``repo`` with one commit per change set (path -> content) on
    ``main``, each on top of the previous; return the commit hashes."""
    repo.mkdir(parents=True)
    git(["init", "-q", "-b", "main"], repo)
    stream: list[bytes] = []
    for n, changes in enumerate(commits, start=1):
        message = f"revision {n}\n".encode()
        stream.append(b"commit refs/heads/main\nmark :%d\n" % n)
        stream.append(b"committer bench <bench@example.invalid> "
                      b"%d +0000\n" % (1700000000 + n))
        stream.append(b"data %d\n%s" % (len(message), message))
        if n > 1:
            stream.append(b"from :%d\n" % (n - 1))
        for path in sorted(changes):
            data = changes[path].encode()
            stream.append(b"M 100644 inline %s\ndata %d\n%s\n"
                          % (path.encode(), len(data), data))
        stream.append(b"\n")
    marks = repo / ".git" / "bench-marks"
    git(["fast-import", "--quiet", f"--export-marks={marks}"], repo,
        stdin=b"".join(stream))
    by_mark = dict(line.split() for line in marks.read_text().splitlines())
    return [by_mark[f":{n}"] for n in range(1, len(commits) + 1)]


def unique_words(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct lowercase pseudo-words, each one BM25 term."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def return_line(fn_index: int) -> int:
    """1-based line of the ``return`` statement of function ``fn_index`` in
    a file from ``code_lines``."""
    return 4 + 4 * fn_index


def code_lines(path: str, rng: random.Random, vocab: list[str], n_funcs: int,
               *, topic: str | None = None, topic_count: int = 0,
               named: dict[int, str] | None = None) -> list[str]:
    """A header line carrying the file tag, then ``n_funcs`` four-line
    functions with a fixed number of words per line. ``topic`` replaces an
    operand in the first ``topic_count`` functions; ``named`` fixes the
    names of some functions."""
    lines = [f"# {{file:{path}}}\n"]
    for k in range(n_funcs):
        name = (named or {}).get(k) or rng.choice(vocab)
        a, b, c, x = rng.sample(vocab, 4)
        if k < topic_count:
            c = topic
        lines += [f"def {name}({a}, {b}):\n",
                  f"    {x} = {a} * {b} + {c}\n",
                  f"    return {x} - {c}\n",
                  "\n"]
    return lines


def flip_return(lines: list[str], fn_index: int) -> None:
    """Toggle the operator of a function's return line in place."""
    i = return_line(fn_index) - 1
    old = lines[i]
    lines[i] = (old.replace(" - ", " + ") if " - " in old
                else old.replace(" + ", " - "))


@dataclass
class ResolveCase:
    """One instance of a resolve workload with its scripted fix."""

    instance_path: Path
    script: IssueScript
    base_files: dict[str, str]  # target path -> content at the base revision

    def expected_files(self) -> dict[str, str]:
        out = {}
        for edit in self.script.edits:
            lines = self.base_files[edit.path].splitlines(keepends=True)
            if lines[edit.line_no - 1] != edit.old:
                raise ValueError(f"{edit.path}:{edit.line_no} is not the "
                                 f"scripted line")
            lines[edit.line_no - 1] = edit.new
            out[edit.path] = "".join(lines)
        return out


@dataclass
class ResolveInputs:
    cases: list[ResolveCase]  # timed instances, in cycle order
    warmup: Path  # a separate instance file resolved once, untimed
    scripts: dict[str, IssueScript] = field(default_factory=dict)


def _write_instance(path: Path, instance_id: str, repo: Path, revision: str,
                    issue: str, **extra) -> Path:
    doc = {"instance_id": instance_id, "repo_path": str(repo),
           "base_revision": revision, "issue_text": issue, **extra}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


# -- bigrepo-evolve ---------------------------------------------------------

CLUSTER = 10  # files sharing the issue topic; equal to top_k, so the top-k
              # set is the same files on every revision
BIGREPO_FUNCS = 36  # 11 BM25 terms each, so about 400 terms per file


def bigrepo_inputs(work: Path, seed: int, *, n_files: int,
                   n_revisions: int) -> ResolveInputs:
    """A repository of ``n_files`` files with ``n_revisions`` revisions.

    Ten files share a topic term the issues use, so BM25 puts exactly them
    in the top 10 on every revision. Revision r carries the fix of issue
    r-1, a small edit to one other topic file and edits to three unrelated
    files; with a shared memory the two changed topic files take the
    summary-update path and the other eight are memo hits.
    """
    if not 1 <= n_revisions <= 5:
        raise ValueError("n_revisions must be 1..5: five topic files are "
                         "targets, the other five take the side edits")
    rng = random.Random(seed)
    words = unique_words(rng, 1500 + 1 + n_revisions)
    vocab, topic, fn_names = words[:1500], words[1500], words[1501:]
    paths = [f"src{i % 50:02d}/mod{i:04d}.py" for i in range(n_files)]
    cluster = rng.sample(paths, CLUSTER)
    targets = cluster[:n_revisions]
    others = cluster[5:]
    target_fn = 3
    files: dict[str, list[str]] = {}
    for path in paths:
        named = {}
        if path in targets:
            named[target_fn] = fn_names[targets.index(path)]
        topic_count = 1 + cluster.index(path) % 5 if path in cluster else 0
        files[path] = code_lines(path, rng, vocab, BIGREPO_FUNCS, topic=topic,
                                 topic_count=topic_count, named=named)
    outside = [p for p in paths if p not in cluster]

    commits = [{p: "".join(lines) for p, lines in files.items()}]
    edits: list[Edit] = []
    for r in range(n_revisions):
        target = targets[r]
        if r > 0:
            changed = [targets[r - 1], others[r % len(others)],
                       *rng.sample(outside, 3)]
            for path in changed:
                flip_return(files[path], target_fn if path == targets[r - 1]
                            else 5)
            commits.append({p: "".join(files[p]) for p in changed})
        lines = files[target]
        i = return_line(target_fn) - 1
        edits.append(Edit(target, i + 1, lines[i],
                          lines[i].replace(" - ", " + ")))

    repo = work / "bigrepo"
    shas = write_repo(repo, commits)
    # the content of each target at the revision its issue is raised on
    snapshots: list[dict[str, str]] = []
    state = dict(commits[0])
    for r in range(n_revisions):
        if r > 0:
            state.update(commits[r])
        snapshots.append({targets[r]: state[targets[r]]})

    inputs = ResolveInputs(cases=[], warmup=work / "warmup.json")
    for r in range(n_revisions):
        issue_id = f"bigrepo-r{r + 1}"
        fn = fn_names[r]
        issue = (f"{{issue:{issue_id}}} Calling {fn} on {topic} input returns "
                 f"a stale total. The {topic} branch of {fn} must add its "
                 f"offset instead of removing it.")
        script = IssueScript(issue_id, (edits[r],))
        inputs.scripts[issue_id] = script
        path = _write_instance(work / f"{issue_id}.json", issue_id, repo,
                               shas[r], issue)
        inputs.cases.append(ResolveCase(path, script, snapshots[r]))
        if r == 0:
            # same issue and revision under another id; its own memory
            _write_instance(inputs.warmup, "warmup", repo, shas[0], issue)
    return inputs


# -- wide-plan-live ---------------------------------------------------------

FAN_OUTS = (4, 8, 16)
WIDE_TOP_K = 16
LONG_FUNCS = 115  # 461 lines, past the coder's whole-file context limit
LONG_EDIT_FN = 100
WIDE_FUNCS = 10  # 41 lines, for every other file


def wide_plan_inputs(work: Path, seed: int, *, n_files: int,
                     fan_outs: tuple[int, ...] = FAN_OUTS) -> ResolveInputs:
    """A small repository and one issue per fan-out. Each issue's topic is
    shared by exactly 16 files (the top-k); the first ``n`` of them are the
    targets. Two targets per issue are long files edited past line 400.
    QA rejects the first attempt of every third task, and the first
    decision on every fourth task (offset 1) comes back malformed."""
    rng = random.Random(seed)
    words = unique_words(rng, 1500 + len(fan_outs))
    vocab, topics = words[:1500], words[1500:]
    paths = [f"lib{i % 10:02d}/part{i:03d}.py" for i in range(n_files)]
    clusters = rng.sample(paths, WIDE_TOP_K * len(fan_outs))
    files: dict[str, list[str]] = {}
    for path in paths:
        funcs, topic, topic_count = WIDE_FUNCS, None, 0
        if path in clusters:
            c, pos = divmod(clusters.index(path), WIDE_TOP_K)
            topic, topic_count = topics[c], 1 + pos % 5
            if pos in (1, 2):
                funcs = LONG_FUNCS
        files[path] = code_lines(path, rng, vocab, funcs, topic=topic,
                                 topic_count=topic_count)
    repo = work / "wide"
    (sha,) = write_repo(repo, [{p: "".join(v) for p, v in files.items()}])

    inputs = ResolveInputs(cases=[], warmup=work / "warmup.json")
    for c, n in enumerate(fan_outs):
        issue_id = f"wide-n{n}"
        members = clusters[c * WIDE_TOP_K:(c + 1) * WIDE_TOP_K]
        edits = []
        for idx, path in enumerate(members[:n]):
            lines = files[path]
            fn = LONG_EDIT_FN if len(lines) > 400 else 4
            i = return_line(fn) - 1
            edits.append(Edit(path, i + 1, lines[i],
                              lines[i].replace(" - ", " + "),
                              qa_rejects_first=idx % 3 == 0,
                              malformed_first_decision=idx % 4 == 1))
        script = IssueScript(issue_id, tuple(edits), stage_width=4)
        inputs.scripts[issue_id] = script
        issue = (f"{{issue:{issue_id}}} The {topics[c]} totals drift: every "
                 f"{topics[c]} helper must add its offset instead of "
                 f"removing it.")
        path = _write_instance(work / f"{issue_id}.json", issue_id, repo, sha,
                               issue)
        inputs.cases.append(ResolveCase(
            path, script, {e.path: "".join(files[e.path]) for e in edits}))
    # the warm-up repeats the smallest issue under its own id
    first = json.loads(inputs.cases[0].instance_path.read_text())
    _write_instance(inputs.warmup, "warmup", repo, sha, first["issue_text"])
    return inputs


# -- eval-batch -------------------------------------------------------------

# Fixed mix of 24 instances; the seed never changes which kind sits where.
EVAL_KINDS = (
    "resolved", "fails_new", "resolved_2hunk", "no_apply", "resolved_3hunk",
    "missing", "resolved", "breaks_old", "resolved_2hunk", "empty",
    "resolved_3hunk", "no_apply", "resolved", "fails_new", "resolved_2hunk",
    "timeout", "resolved_3hunk", "no_apply", "resolved", "breaks_old",
    "missing", "fails_new", "no_apply", "empty",
)
# Checks skip the site import (-S) and the environment (-I): the site
# import of a full Python install costs several times a bare interpreter
# start, varies from one install to the next, and is no work of patchcrew's.
CHECK_PYTHON = "python3 -I -S"
# Each check models a test suite that runs for this long, by sleeping. Real
# suites run for seconds or more; without a modelled run time an evaluation
# is nothing but process starts and file writes, whose speed swung by up to
# 2x from one minute to the next on a shared 2-vCPU host.
CHECK_SECONDS = 0.2
SLOW_CHECK_SECONDS = 1.5
TIMEOUT_SECONDS = 1
CHECK_TIMEOUT_SECONDS = 60


@dataclass(frozen=True)
class EvalTruth:
    generated: bool
    applied: bool
    resolved: bool


@dataclass
class EvalInputs:
    instances_dir: Path
    changes_dir: Path
    truth: dict[str, EvalTruth]
    warmup_dir: Path  # one resolved instance with its patch, untimed


def _module(doc: str, f: str, g: str, k: int, m: int, filler: list[str]) -> list[str]:
    lines = [f'"""{doc}"""\n', "\n"]
    for name in filler[:3]:
        lines += ["\n", f"def {name}(a):\n", f"    return a + {k}\n"]
    lines += ["\n", f"def {f}(a, b):\n", f"    return a - b + {k}\n"]
    for name in filler[3:]:
        lines += ["\n", f"def {name}(a):\n", f"    return a * {k}\n"]
    lines += ["\n", f"def {g}(a):\n", f"    return a * {m}\n"]
    return lines


def unified_patch(path: str, old: str, new: str) -> str:
    """A git-style patch made with difflib, with no hunk headings."""
    body = difflib.unified_diff(old.splitlines(keepends=True),
                                new.splitlines(keepends=True),
                                f"a/{path}", f"b/{path}", n=3)
    return f"diff --git a/{path} b/{path}\n" + "".join(body)


def eval_inputs(work: Path, seed: int) -> EvalInputs:
    """A small runnable repository: one module and three check scripts per
    instance. Each module's ``f`` subtracts where it should add (the
    fail-to-pass check) and its ``g`` is correct (the pass-to-pass check).
    Reference patches are ``git diff`` output from a fix commit; generated
    patches are difflib output, one kind per instance as in
    ``EVAL_KINDS``."""
    rng = random.Random(seed)
    words = unique_words(rng, 10 * len(EVAL_KINDS))
    files: dict[str, str] = {}
    fixed: dict[str, str] = {}
    plan = []
    for i, kind in enumerate(EVAL_KINDS):
        f, g, *filler = words[10 * i:10 * i + 10]
        k, m = rng.randint(2, 9), rng.randint(2, 9)
        # q >= 3 keeps p * q != p + q, so the fails_new patch really fails
        p, q = rng.randint(2, 9), rng.randint(3, 9)
        mod = f"lib/m{i:02d}.py"
        lines = _module(f"{f} and {g} helpers.", f, g, k, m, filler)
        files[mod] = "".join(lines)
        fix_at = lines.index(f"    return a - b + {k}\n")
        good = list(lines)
        good[fix_at] = f"    return a + b + {k}\n"
        fixed[mod] = "".join(good)
        head = (f"import sys, time\ntime.sleep({CHECK_SECONDS})\n"
                f'sys.path.insert(0, "lib")\n')
        files[f"checks/new_{i:02d}.py"] = (
            f"{head}from m{i:02d} import {f}\n"
            f"sys.exit(0 if {f}({p}, {q}) == {p + q + k} else 1)\n")
        files[f"checks/old_{i:02d}.py"] = (
            f"{head}from m{i:02d} import {g}\n"
            f"sys.exit(0 if {g}(3) == {3 * m} else 1)\n")
        files[f"checks/slow_{i:02d}.py"] = (
            f"import time\ntime.sleep({SLOW_CHECK_SECONDS})\n")
        plan.append((kind, mod, lines, good, fix_at, (f, p, q, k)))

    repo = work / "evalrepo"
    base, fix = write_repo(repo, [files, {**files, **fixed}])
    refs = _split_patch(git(["diff", base, fix], repo))

    instances_dir, changes_dir = work / "instances", work / "changes"
    instances_dir.mkdir()
    changes_dir.mkdir()
    truth: dict[str, EvalTruth] = {}
    for i, (kind, mod, lines, good, fix_at, (f, p, q, k)) in enumerate(plan):
        iid = f"eval-{i:02d}"
        new = list(good)
        if kind == "resolved_2hunk":
            new[0] = new[0].replace('"""', '"""Checked. ', 1)
        elif kind == "resolved_3hunk":
            new[0] = new[0].replace('"""', '"""Checked. ', 1)
            new.append("# reviewed\n")
        elif kind == "fails_new":
            new[fix_at] = f"    return a * b + {k}\n"
        elif kind == "breaks_old":
            new[-1] = new[-1].rstrip("\n") + " + 1\n"
        old = "".join(lines)
        if kind == "no_apply":
            # made against a base whose function has another name
            stale = list(lines)
            stale[fix_at - 1] = stale[fix_at - 1].replace(f"def {f}(", f"def {f}x(")
            renamed = list(new)
            renamed[fix_at - 1] = stale[fix_at - 1]
            patch = unified_patch(mod, "".join(stale), "".join(renamed))
        else:
            patch = unified_patch(mod, old, "".join(new))
        if kind == "empty":
            (changes_dir / f"{iid}.patch").write_text("", encoding="utf-8")
        elif kind != "missing":
            (changes_dir / f"{iid}.patch").write_text(patch, encoding="utf-8")
        check = (f"{CHECK_PYTHON} checks/slow_{i:02d}.py" if kind == "timeout"
                 else f"{CHECK_PYTHON} checks/new_{i:02d}.py")
        _write_instance(
            instances_dir / f"{iid}.json", iid, repo, base,
            f"{f}({p}, {q}) should return {p + q + k}.",
            pass_to_pass=[f"{CHECK_PYTHON} checks/old_{i:02d}.py"],
            fail_to_pass=[check],
            timeout_seconds=(TIMEOUT_SECONDS if kind == "timeout"
                             else CHECK_TIMEOUT_SECONDS))
        (instances_dir / f"{iid}.ref.patch").write_text(refs[mod],
                                                        encoding="utf-8")
        generated = kind not in ("missing", "empty")
        applied = generated and kind != "no_apply"
        truth[iid] = EvalTruth(generated, applied,
                               kind.startswith("resolved"))

    warmup_dir = work / "warmup"
    (warmup_dir / "changes").mkdir(parents=True)
    first = EVAL_KINDS.index("resolved")
    doc = json.loads((instances_dir / f"eval-{first:02d}.json").read_text())
    doc["instance_id"] = "warmup"
    (warmup_dir / "warmup.json").write_text(json.dumps(doc), encoding="utf-8")
    (warmup_dir / "changes" / "warmup.patch").write_text(
        (changes_dir / f"eval-{first:02d}.patch").read_text())
    return EvalInputs(instances_dir, changes_dir, truth, warmup_dir)


def _split_patch(text: str) -> dict[str, str]:
    """Split multi-file ``git diff`` output into path -> single-file patch."""
    out: dict[str, str] = {}
    for chunk in text.split("diff --git ")[1:]:
        path = chunk.split("\n", 1)[0].split(" b/", 1)[1]
        out[path] = "diff --git " + chunk
    return out
