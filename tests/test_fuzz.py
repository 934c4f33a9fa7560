"""Seeded mutation fuzz of the CLI on the bundled corpus.

Each mutant is a corpus file, its comment lines dropped, with one to
three edits: a token replaced, appended or dropped, or a line dropped or
duplicated.  Every run must end in exit 0, 1 or 2 with no exception
escaping cli.main; an exit 2, a malformed file, must say so on stderr
starting with the file's path; and no run may take a second.

Most such files stop at the parser, so mutants of a second kind keep
the file's shape.  A ring mutant has an N multiplicity or a dual entry
changed, or an N line added with valid indices; its forced analysis
must end in exit 0 or 1.  A metric mutant has one q value changed to
one that a corpus file holds, one order changed to another power of its
prime, or one cross term added that meets its congruence.  Every verb
that reads it must end in exit 0 or 1, and the verbs must agree:
validate calls the form nondegenerate exactly when witt-class succeeds,
and witt-subgroup of the one form has the order witt-order prints.
Each anisotropic part witt-class prints, written back as a file, takes
no reduction step and comes back as the same part; and the invariant key
of a one-prime form's class has the order witt-order prints.
"""

import contextlib
import io
import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

from fusionwitt import cli, corpus
from fusionwitt.arith import prime_power_base
from fusionwitt.metric_group import metric_group
from fusionwitt.witt import pointed_witt_class
from test_witt_keys import key_sum, witt_key

SEED = 20130
MUTANTS = 150
RUN_LIMIT_S = 1.0
VERBS = {
    ".mg": (["validate"], ["witt-class"], ["witt-order"], ["witt-subgroup"]),
    ".fr": (["validate"], ["analyze"], ["analyze", "--force"]),
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
    """(status, stderr, seconds, escaped exception, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status, escaped = cli.main(argv), None
        except (Exception, SystemExit) as exc:
            status, escaped = None, exc
    return status, err.getvalue(), time.perf_counter() - start, escaped, out.getvalue()


def failure(path, result, statuses=(0, 1, 2)):
    """Why one run of a mutant at path, with run's result, breaks the contract, or None."""
    status, err, seconds, escaped, _ = result
    if escaped is not None:
        return f"raised {type(escaped).__name__}: {escaped}"
    if status not in statuses:
        return f"exit {status!r}: {err!r}"
    if status == 2 and not err.startswith(str(path)):
        return f"exit 2 without the path: {err!r}"
    if seconds > RUN_LIMIT_S:
        return f"took {seconds:.2f} s"
    return None


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
                why = failure(path, run(argv))
                runs += 1
                if why is not None:
                    problems.append(f"{' '.join(argv)}: {why}\n{path.read_text()}")
    assert not problems, f"{len(problems)} of {runs} runs failed; first:\n" + "\n".join(problems[:3])


def mutate_ring(lines, rng):
    """The ring file's lines with one to three edits that keep it parsing."""
    lines = list(lines)
    rank = int(lines[0].split()[1])
    for _ in range(rng.randint(1, 3)):
        n_lines = [n for n, line in enumerate(lines) if line.startswith("N ")]
        edit = rng.choice(("multiplicity", "dual", "add"))
        if edit == "multiplicity" and n_lines:
            n = rng.choice(n_lines)
            lines[n] = " ".join(lines[n].split()[:4] + [str(rng.randint(0, 3))])
        elif edit == "dual":
            words = lines[2].split()
            words[1 + rng.randrange(rank)] = str(rng.randrange(rank))
            lines[2] = " ".join(words)
        else:
            taken = {tuple(lines[n].split()[1:4]) for n in n_lines}
            free = [t for t in product(map(str, range(rank)), repeat=3) if t not in taken]
            if free:
                lines.append(" ".join(("N", *rng.choice(free), str(rng.randint(1, 2)))))
    return "\n".join(lines) + "\n"


def test_forced_analysis_of_parsing_ring_mutants_ends_cleanly(tmp_path):
    files = corpus_lines()
    rng = random.Random(SEED)
    names = sorted(n for n in files if n.endswith(".fr"))
    problems, runs = [], 0
    for m in range(MUTANTS):
        name = rng.choice(names)
        path = tmp_path / f"m{m:03d}_{name}"
        path.write_text(mutate_ring(files[name], rng), encoding="utf-8")
        for fmt in ("text", "machine"):
            argv = ["analyze", "--force", "--format", fmt, str(path)]
            why = failure(path, run(argv), statuses=(0, 1))
            runs += 1
            if why is not None:
                problems.append(f"{' '.join(argv)}: {why}\n{path.read_text()}")
    assert not problems, f"{len(problems)} of {runs} runs failed; first:\n" + "\n".join(problems[:3])


def mutate_metric(lines, q_values, rng):
    """The metric file's lines with one edit that keeps it parsing."""
    words = [line.split("#", 1)[0].split() for line in lines]
    orders = [int(d) for d in words[0][1:]]
    taken = {tuple(w[1:3]) for w in words[2:]}
    free = [(i, j) for j in range(1, len(orders) + 1) for i in range(1, j) if (str(i), str(j)) not in taken]
    edit = rng.choice(("q", "order", "cross") if free else ("q", "order"))
    if edit == "q":
        words[1][1 + rng.randrange(len(orders))] = rng.choice(q_values)
    elif edit == "order":
        n = rng.randrange(len(orders))
        p = prime_power_base(orders[n])
        words[0][1 + n] = str(rng.choice([p**e for e in range(1, 5) if p**e != orders[n]]))
    else:
        i, j = rng.choice(free)
        g = gcd(orders[i - 1], orders[j - 1])
        words.append(["b", str(i), str(j), str(Fraction(rng.randrange(1, g), g))])
    return "".join(" ".join(w) + "\n" for w in words)


def disagreements(path, outcome):
    """How the machine reports of one mutant's verbs contradict each other."""
    report = {verb: cli.parse_machine(result[4]) for verb, result in outcome.items()}
    out = []
    if report["validate"].get("nondegenerate", False) != (outcome["witt-class"][0] == 0):
        out.append(f"{path}: validate says {report['validate']}, witt-class exits {outcome['witt-class'][0]}")
    if outcome["witt-order"][0] == 0 or outcome["witt-subgroup"][0] == 0:
        orders = report["witt-order"].get("witt_order"), report["witt-subgroup"].get("subgroup_order")
        if orders[0] != orders[1]:
            out.append(f"{path}: witt-order prints {orders[0]}, witt-subgroup {orders[1]}")
    return out


def key_order(key):
    """The order of an invariant key under key_sum; the empty key is the identity's."""
    n, power = 1, key
    while power:
        n, power = n + 1, key_sum(power, key)
    return n


def part_facts(report, p):
    """The anisotropic representative of the p-part and its Gauss argument,
    from a witt-class machine report, keyed without the part_<p>_ prefix."""
    prefix = f"part_{p}_"
    return {key[len(prefix):]: v for key, v in report.items()
            if key.startswith(prefix + "anisotropic_") or key == prefix + "argument"}


def class_checks(path, outcome):
    """How a nondegenerate mutant's printed class disagrees with itself
    written back, or with its invariant key.  The file of a part is
    written from the printed facts alone: its orders, its q values and
    its part_<p>_anisotropic_b_<i>_<j> cross terms."""
    printed, order = (cli.parse_machine(outcome[verb][4]) for verb in ("witt-class", "witt-order"))
    mg = metric_group(*cli.parse_metric_file(str(path)))
    cls = pointed_witt_class(mg)
    out = []
    for p in cls.primes:
        part = part_facts(printed, p)
        # a one-value list reads back as its value
        orders, q = (v if isinstance(v, tuple) else (v,) for v in (part["anisotropic_orders"], part["anisotropic_q"]))
        cross = "".join(f"b {' '.join(key.split('_')[2:])} {v}\n" for key, v in part.items()
                        if key.startswith("anisotropic_b_"))
        rep_path = path.with_name(f"{path.stem}_part{p}.mg")
        rep_path.write_text(f"orders {' '.join(map(str, orders))}\nq {' '.join(map(str, q))}\n{cross}", encoding="utf-8")
        status, err, _, _, text = run(["witt-class", "--format", "machine", str(rep_path)])
        again = cli.parse_machine(text)
        if status != 0 or (again.get("primes"), again.get(f"part_{p}_steps")) != (p, 0) or part_facts(again, p) != part:
            out.append(f"{path}: part {p} printed as {part} comes back as {again} (exit {status}: {err!r})")
    key = witt_key(cls)
    if prime_power_base(mg.size) is not None and key_order(key) != order.get("witt_order"):
        out.append(f"{path}: key {key} has order {key_order(key)}, witt-order prints {order.get('witt_order')}")
    return out


def test_verbs_agree_on_parsing_metric_mutants(tmp_path):
    files = corpus_lines()
    q_values = sorted({w for lines in files.values() for line in lines if line.startswith("q ") for w in line.split()[1:]})
    rng = random.Random(SEED)
    names = sorted(n for n in files if n.endswith(".mg"))
    problems, runs, witt_successes, class_checked = [], 0, 0, 0
    start = time.perf_counter()
    for m in range(MUTANTS):
        name = rng.choice(names)
        path = tmp_path / f"m{m:03d}_{name}"
        path.write_text(mutate_metric(files[name], q_values, rng), encoding="utf-8")
        for fmt in ("text", "machine"):
            outcome = {}
            for verb in VERBS[".mg"]:
                argv = [*verb, "--format", fmt, str(path)]
                outcome[verb[0]] = result = run(argv)
                why = failure(path, result, statuses=(0, 1))
                runs += 1
                witt_successes += verb[0] != "validate" and result[0] == 0
                if why is not None:
                    problems.append(f"{' '.join(argv)}: {why}\n{path.read_text()}")
            if fmt == "machine":
                problems += disagreements(path, outcome)
                if outcome["witt-class"][0] == 0:
                    problems += class_checks(path, outcome)
                    class_checked += 1
    seconds = time.perf_counter() - start
    assert not problems, f"{len(problems)} of {runs} runs failed; first:\n" + "\n".join(problems[:3])
    assert witt_successes >= 100
    assert class_checked >= 15
    assert seconds < 5.0

