#!/usr/bin/env python3
"""Documentation lint, run by the CI docs job (and freely on a dev box):

1. Link check — every relative markdown link in README.md and docs/*.md must
   resolve to a file or directory that exists in the repo. External links
   (http/https/mailto) are not fetched: this gate is about repo-internal
   drift (a renamed doc or source file breaking the doc map), not network
   weather.

2. Doc-drift lint — every subsystem directory under src/ must be mentioned
   in docs/architecture.md. When a PR adds src/<new-subsystem>/ without
   documenting it, this fails the build instead of relying on review memory.

3. Path check — every repo path named in a `code span` of README.md,
   docs/architecture.md, docs/coordinator.md or docs/scenarios.md must exist:
   src/, bench/, tests/, tools/ and examples/ paths (globs and {a,b}
   alternatives expanded), and the <subsystem>/<file>.hpp|.cpp shorthand the
   docs use for src/. A bench program name (`bench/multi_tenant --smoke`)
   passes when bench/<name>.cpp exists. docs/perf.md is a dated log of
   measurements and is exempt: it names files as they were at the time.

4. Source-comment check — every *.md path named in a comment of a src/
   .hpp or .cpp file must exist, resolved from the repo root, so a comment
   never points a reader at a document that is not there.

Usage: tools/check_docs.py [repo_root]   (default: the repo containing this
script). Exits nonzero with one line per problem.
"""

import glob
import os
import re
import sys

# Matches [text](target) but not images ![..](..); target split from an
# optional '#fragment' / 'title' suffix.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")


def md_files(root):
    files = [os.path.join(root, "README.md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                files.append(os.path.join(docs, name))
    return [f for f in files if os.path.isfile(f)]


def check_links(root):
    problems = []
    checked = 0
    for path in md_files(root):
        base = os.path.dirname(path)
        text = open(path, encoding="utf-8").read()
        # Fenced code blocks routinely contain (a)[b] lookalikes; strip them.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for m in LINK_RE.finditer(text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(base, target))
            if not resolved.startswith(root + os.sep) and resolved != root:
                # Climbs out of the repo: a GitHub site-relative URL (badge
                # targets and the like), not a repo file reference.
                continue
            checked += 1
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, root)
                problems.append(f"{rel}: broken link '{m.group(1)}' "
                                f"(resolved to {os.path.relpath(resolved, root)})")
    return checked, problems


def check_architecture_coverage(root):
    problems = []
    arch_path = os.path.join(root, "docs", "architecture.md")
    if not os.path.isfile(arch_path):
        return ["docs/architecture.md missing"]
    arch = open(arch_path, encoding="utf-8").read()
    src = os.path.join(root, "src")
    subsystems = sorted(
        d for d in os.listdir(src) if os.path.isdir(os.path.join(src, d)))
    for sub in subsystems:
        # A mention is 'src/<sub>' or '<sub>/' — loose on purpose: the lint
        # exists to catch a subsystem with NO documentation, not to dictate
        # phrasing.
        if f"src/{sub}" not in arch and f"{sub}/" not in arch:
            problems.append(
                f"docs/architecture.md: subsystem src/{sub}/ is never "
                "mentioned — document it (one paragraph is enough)")
    return problems


PATH_DOCS = ["README.md", "docs/architecture.md", "docs/coordinator.md",
             "docs/scenarios.md"]
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
REPO_PATH_RE = re.compile(
    r"(?<![\w./-])((?:src|bench|tests|tools|examples)/[\w./*{},-]*)")


def expand_braces(path):
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out += expand_braces(path[:m.start()] + alt + path[m.end():])
    return out


def path_exists(root, path):
    full = os.path.join(root, path)
    if "*" in path:
        return bool(glob.glob(full))
    if os.path.exists(full):
        return True
    # A bench program is named by its binary: bench/<name> -> bench/<name>.cpp.
    name, ext = os.path.splitext(path)
    return path.startswith("bench/") and not ext and os.path.isfile(
        os.path.join(root, name + ".cpp"))


def check_paths(root):
    problems = []
    checked = 0
    src = os.path.join(root, "src")
    subsystems = sorted(
        d for d in os.listdir(src) if os.path.isdir(os.path.join(src, d)))
    short_re = re.compile(r"(?<![\w./-])((?:%s)/[\w.*{},-]+)" %
                          "|".join(map(re.escape, subsystems)))
    for rel in PATH_DOCS:
        path = os.path.join(root, rel)
        if not os.path.isfile(path):
            continue
        for span in CODE_SPAN_RE.findall(open(path, encoding="utf-8").read()):
            named = [(m, m) for m in REPO_PATH_RE.findall(span)]
            # Shorthand for src/: only file names, not prose like "fig5/6/7".
            named += [("src/" + m, m) for m in short_re.findall(span)
                      if re.search(r"\.(hpp|cpp|\*|\{[\w,]+\})$", m)]
            for target, shown in named:
                for candidate in expand_braces(target.rstrip(".,;:")):
                    checked += 1
                    if not path_exists(root, candidate):
                        problems.append(f"{rel}: names `{shown}`, but "
                                        f"{candidate} does not exist")
    return checked, problems


# A comment, or a string or character literal to skip (a literal may hold
# "//"); only the comments are checked.
COMMENT_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.S)
MD_NAME_RE = re.compile(r"(?<![\w./-])([\w./-]+\.md)\b")


def check_source_comments(root):
    problems = []
    checked = 0
    files = sorted(glob.glob(os.path.join(root, "src", "**", "*.[hc]pp"),
                             recursive=True))
    for path in files:
        text = open(path, encoding="utf-8").read()
        for m in COMMENT_RE.finditer(text):
            if not m.group(0).startswith("/"):
                continue
            for name in MD_NAME_RE.finditer(m.group(0)):
                checked += 1
                if not os.path.isfile(os.path.join(root, name.group(1))):
                    line = text.count("\n", 0, m.start() + name.start()) + 1
                    rel = os.path.relpath(path, root)
                    problems.append(f"{rel}:{line}: comment names "
                                    f"`{name.group(1)}`, which does not exist")
    return checked, problems


def main():
    root = os.path.abspath(
        sys.argv[1] if len(sys.argv) > 1
        else os.path.join(os.path.dirname(__file__), ".."))
    checked, problems = check_links(root)
    problems += check_architecture_coverage(root)
    paths, path_problems = check_paths(root)
    problems += path_problems
    mds, md_problems = check_source_comments(root)
    problems += md_problems
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return 1
    print(f"ok: {checked} relative links resolve; every src/* subsystem is "
          f"covered by docs/architecture.md; {paths} named paths exist; "
          f"{mds} documents named in src/ comments exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
