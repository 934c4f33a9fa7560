"""Seeded mutation fuzz of the CLI on the bundled corpus.

Each mutant is a corpus file, its comment lines dropped, with one to
three edits: a token replaced, appended or dropped, or a line dropped or
duplicated.  Every run must end in exit 0, 1 or 2 with no exception
escaping cli.main; an exit 2, a malformed file, must say so on stderr
starting with the file's path; and no run may take a second.
"""

import contextlib
import io
import random
import time
from fractions import Fraction

from fusionwitt import cli, corpus

SEED = 20130
MUTANTS = 150
RUN_LIMIT_S = 1.0
VERBS = {
    ".mg": (["validate"], ["witt-class"], ["witt-order"], ["witt-subgroup"]),
    ".fr": (["validate"], ["analyze"]),
}
# a new token is one of these a third of the time, else a number or
# fraction that some corpus file holds, which keeps the line's shape
MALFORMED = ("0", "-1", "x", "1/0", "2/3", "64", "0.5")


def corpus_lines():
    """Each corpus file's lines that carry content."""
    out = {}
    for name in corpus.names():
        with open(corpus.path(name), encoding="utf-8") as fh:
            out[name] = [line for line in fh.read().splitlines() if line.split("#", 1)[0].strip()]
    return out


def is_number(word):
    try:
        Fraction(word)
    except ValueError:
        return False
    return True


def mutate(lines, numbers, rng):
    """The lines with one to three random edits, as file text."""
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        n = rng.randrange(len(lines))
        words = lines[n].split()
        new = rng.choice(MALFORMED if rng.random() < 1 / 3 else numbers)
        edit = rng.choice(("replace", "append", "drop token", "drop line", "duplicate line"))
        if edit == "drop line":
            del lines[n]
        elif edit == "duplicate line":
            lines.insert(n, lines[n])
        elif edit == "append":
            lines[n] = " ".join(words + [new])
        elif words:
            k = rng.randrange(len(words))
            words[k:k + 1] = [new] if edit == "replace" else []
            lines[n] = " ".join(words)
    return "\n".join(lines) + "\n"


def run(argv):
    """(status, stderr, seconds, escaped exception) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status, escaped = cli.main(argv), None
        except (Exception, SystemExit) as exc:
            status, escaped = None, exc
    return status, err.getvalue(), time.perf_counter() - start, escaped


def test_mutated_corpus_files_fail_cleanly(tmp_path):
    files = corpus_lines()
    numbers = sorted({w for lines in files.values() for line in lines for w in line.split("#", 1)[0].split() if is_number(w)})
    rng = random.Random(SEED)
    names = sorted(n for n in files if n[-3:] in VERBS)
    problems, runs = [], 0
    for m in range(MUTANTS):
        name = rng.choice(names)
        path = tmp_path / f"m{m:03d}_{name}"
        path.write_text(mutate(files[name], numbers, rng), encoding="utf-8")
        for verb in VERBS[name[-3:]]:
            for fmt in ("text", "machine"):
                argv = [*verb, "--format", fmt, str(path)]
                status, err, seconds, escaped = run(argv)
                runs += 1
                if escaped is not None:
                    why = f"raised {type(escaped).__name__}: {escaped}"
                elif status not in (0, 1, 2):
                    why = f"exit {status!r}"
                elif status == 2 and not err.startswith(str(path)):
                    why = f"exit 2 without the path: {err!r}"
                elif seconds > RUN_LIMIT_S:
                    why = f"took {seconds:.2f} s"
                else:
                    continue
                problems.append(f"{' '.join(argv)}: {why}\n{path.read_text()}")
    assert not problems, f"{len(problems)} of {runs} runs failed; first:\n" + "\n".join(problems[:3])
