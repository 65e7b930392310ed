"""Command line front end: state-file I/O, decomposition and classification
reports, Haar-random sampling with CSV records, and polytope plot data.

Exit codes: 0 ok, 2 input error, 3 numerical error, 4 output I/O error.
State files are JSON: {"dims": [...], "amplitudes": [[re, im], ...],
"label": "..."} with amplitudes flat in C order (last index fastest,
i.e. 4(i1-1) + 2(i2-1) + (i3-1) for three qubits).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from collections.abc import Iterator
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import DomainError, NumericalError, ShapeError, ValidationError
from .hosvd import hosvd
from .qubit3 import (
    _polytope,
    _unit_rows,
    classify,
    classify_batch,
    normalize,
    polytope_membership,
)
from .smalllinalg import _tolerance
from .tensor import make_tensor

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_TOL = 1e-10
DEFAULT_SIGMA_TOL = 1e-8
GENERATOR_NAME = "philox4x64"
# states that sample draws and classifies at once; this bounds its memory
_SAMPLE_CHUNK = 256


class InputError(ValueError):
    """Input file or flag value is unusable."""


def read_state_file(path):
    """Parse a JSON state file into (dims, flat complex amplitudes, label)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers
        # past int's digit limit; RecursionError, arrays nested too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    try:
        dims = doc["dims"]
        pairs = doc["amplitudes"]
    except KeyError as exc:
        raise InputError(f"{path}: need 'dims' and 'amplitudes' fields") from exc
    # bool is a subclass of int, and JSON true must not read as 1
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise InputError(f"{path}: dims must be a list of integers, got {dims!r}")
    if any(d < 1 for d in dims):
        raise InputError(f"{path}: dims must be positive, got {dims}")
    try:
        amps = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: amplitudes must be [re, im] pairs") from exc
    except OverflowError as exc:  # an integer too large for a float
        raise InputError(f"{path}: amplitudes must be finite") from exc
    if bool in set(map(type, chain.from_iterable(pairs))):
        raise InputError(f"{path}: amplitudes must be numbers, not true or false")
    if amps.size != math.prod(dims):
        raise InputError(
            f"{path}: got {amps.size} amplitudes for dims {dims} "
            f"(expected {math.prod(dims)})"
        )
    if not np.all(np.isfinite(amps.view(np.float64))):
        raise InputError(f"{path}: amplitudes must be finite")
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise InputError(f"{path}: label must be a string")
    return dims, amps, label


def haar_random_amplitudes(rng, count: int) -> np.ndarray:
    """count Haar-random pure 3-qubit states, as (count, 2, 2, 2): each is 8
    standard complex Gaussians, normalized.  Per state, rng draws the 8 real
    parts and then the 8 imaginary parts, so the states do not depend on
    how a run splits its count."""
    z = rng.standard_normal((count, 2, 8))
    return _unit_rows(z[:, 0] + 1j * z[:, 1])


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _block(items, level: int, brackets: str = "[]") -> str:
    # a non-empty container at nesting level `level`, one item a line
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + inner[:-2] + brackets[1]


def _array_text(values: np.ndarray, level: int) -> str:
    # values nested as [re, im] pairs: every float is written in one pass, each
    # last-axis row with two joins, and only the outer axes nest through _block
    if not values.size:  # no floats, so the nested lists are the whole text
        return _json_text(values.tolist(), level)
    texts = list(map(repr, values.ravel().view(np.float64).tolist()))
    if not np.isfinite(values).all():
        texts = list(map(_NONFINITE.get, texts, texts))
    shape, depth = values.shape, values.ndim - 1
    inner, n = "\n" + "  " * (level + depth + 1), shape[-1]
    pairs = list(map(("," + inner + "  ").join, zip(*[iter(texts)] * 2)))
    between = inner + "]," + inner + "[" + inner + "  "
    rows = [f"[{inner}[{inner}  {between.join(pairs[i:i + n])}{inner}]{inner[:-2]}]"
            for i in range(0, len(pairs), n)]
    for axis in reversed(range(depth)):
        rows = [_block(rows[i:i + shape[axis]], level + axis)
                for i in range(0, len(rows), shape[axis])]
    return rows[0]


def _json_text(obj, level: int = 0) -> str:
    """obj as json.dumps(obj, indent=2) writes it, where a complex ndarray
    stands for its nested [re, im] pairs of Python floats.  A dict key that
    is not a str, and a value of any other type, raise TypeError."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "c" and obj.ndim:
        return _array_text(obj, level)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _block((_json_text(v, level + 1) for v in obj), level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return _block((f"{encode_basestring_ascii(k)}: {_json_text(v, level + 1)}"
                       for k, v in obj.items()), level, "{}")
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(chunks: Iterator[str], output) -> None:
    """Write the text a command yields to stdout, or atomically replace the
    file output with it.  The first chunk is taken before anything is
    opened, so a command that rejects its flags or input leaves output
    alone.  Later chunks are written as they come: on stdout, a run that
    fails part way leaves what it wrote, and the exit code reports it.

    A regular or missing output (for a symlink, the file it points to; the
    link stays) is written to a temporary file beside it, opened with
    O_EXCL: a new file gets 0o666 less the umask, as open(output, "w")
    gives it, and a replaced file's mode is set by fchmod before the first
    byte.  os.replace then puts it in output's place; on any failure it is
    removed and output is left as it was.  Anything else that exists, such
    as /dev/null, is written in place.  POSIX only.  A hard link to a
    replaced file keeps the old text, and nothing is fsynced: readers see
    the old or the new text, never a mix, but not across a crash."""
    chunks = chain([next(chunks)], chunks)
    if output is None:
        sys.stdout.writelines(chunks)
        return
    target = output
    try:
        mode = os.lstat(target).st_mode
        if stat.S_ISLNK(mode):
            # realpath takes an lstat per path component: only links need it
            target = os.path.realpath(output)
            mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is None or stat.S_ISREG(mode):
        tmp = os.path.join(os.path.dirname(target), f".hosvd3-{os.urandom(8).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666 if mode is None else 0o600)
    else:  # replacing a device or a pipe would put a regular file in its place
        tmp, fd = None, os.open(target, os.O_WRONLY | os.O_TRUNC)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if tmp is not None and mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            fh.writelines(chunks)
        if tmp is not None:
            os.replace(tmp, target)
    except BaseException:
        if tmp is not None:
            os.remove(tmp)
        raise


def cmd_decompose(args) -> Iterator[str]:
    tol = _tolerance("--tol", args.tol)
    dims, amps, label = read_state_file(args.input)
    result = hosvd(make_tensor(dims, amps), tol=tol)
    doc = {
        "command": "decompose",
        "label": label,
        "dims": dims,
        "tol": tol,
        "factors": result.factors,
        "core": result.core.data.ravel(),
        "spectra": [spec.tolist() for spec in result.spectra],
        "residuals": {
            "reconstruction": result.residuals.reconstruction,
            "all_orthogonality": result.residuals.all_orthogonality,
        },
        "degenerate_modes": sorted(result.degenerate_modes),
    }
    yield _json_text(doc) + "\n"


def cmd_classify(args) -> Iterator[str]:
    tol = _tolerance("--tol", args.tol)
    sigma_tol = _tolerance("--sigma-tol", args.sigma_tol)
    dims, amps, label = read_state_file(args.input)
    if dims != [2, 2, 2]:
        raise InputError(f"classify needs dims [2, 2, 2], got {dims}")
    state = normalize(amps)
    cls = classify(state, tol=tol, sigma_tol=sigma_tol)
    membership = polytope_membership(cls.sigma_triple, tol=tol)
    doc = {
        "command": "classify",
        "label": label,
        "tol": tol,
        "sigma_tol": sigma_tol,
        "separability": cls.separability,
        "case": cls.case,
        "special": cls.special,
        "sigma": list(cls.sigma_triple),
        "degenerate_modes": sorted(cls.degenerate_modes),
        "gauge_warning": cls.gauge_warning,
        "polytope": {
            "point": list(cls.sigma_triple),
            # clipped to [1/2, 1] for plotting; "point" keeps the raw values
            "clamped": [min(1.0, max(0.5, v)) for v in cls.sigma_triple],
            "member": membership.member,
            "facet_residuals": membership.residuals,
        },
        "residuals": cls.residuals,
    }
    yield _json_text(doc) + "\n"


def cmd_sample(args) -> Iterator[str]:
    tol = _tolerance("--tol", args.tol)
    sigma_tol = _tolerance("--sigma-tol", args.sigma_tol)
    if args.count < 1:
        raise InputError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.Generator(np.random.Philox(args.seed))
    yield (f"# generator={GENERATOR_NAME} seed={args.seed} count={args.count}"
           f" tol={tol:g} sigma_tol={sigma_tol:g}\n"
           "id,s1,s2,s3,separability,case,special\n")
    violations = 0
    for start in range(0, args.count, _SAMPLE_CHUNK):
        amps = haar_random_amplitudes(rng, min(_SAMPLE_CHUNK, args.count - start))
        # classify_batch normalizes each row once more, as normalize() does,
        # so a row is the record classify(normalize(row)) gives
        cls = classify_batch(amps, tol=tol, sigma_tol=sigma_tol)
        violations += int(np.count_nonzero(~_polytope(*cls.sigma.T, tol)[0]))
        rows = zip(range(start, start + len(amps)), *cls.sigma.T.tolist(),
                   cls.separability.tolist(), cls.case.tolist(), cls.special.tolist())
        yield ("%d,%.12g,%.12g,%.12g,%s,%s,%s\n" * len(amps)) % tuple(chain.from_iterable(rows))
    yield f"# polytope_violations={violations}\n"


def _facet_triangles(resolution: int):
    # barycentric subdivision of the parameter triangle with corners
    # (0.5, 1.0), (1.0, 0.5), (1.0, 1.0); every point stays on the facet.
    r = resolution - 1

    def point(i, j):
        a, b, c = (r - i - j) / r, i / r, j / r
        return (a * 0.5 + b + c, a + b * 0.5 + c)

    for i in range(r):
        for j in range(r - i):
            yield point(i, j), point(i + 1, j), point(i, j + 1)
            if i + j < r - 1:
                yield point(i + 1, j), point(i + 1, j + 1), point(i, j + 1)


def cmd_polytope_mesh(args) -> Iterator[str]:
    if args.resolution < 2:
        raise InputError(f"--resolution must be >= 2, got {args.resolution}")
    res = args.resolution
    yield f"# polytope mesh resolution={res}\nsection,element,vertex,s1,s2,s3\n"

    def points(section, triples):
        for idx, (s1, s2, s3) in enumerate(triples):
            yield f"{section},{idx},0,{s1:.12g},{s2:.12g},{s3:.12g}\n"

    grid = np.linspace(0.5, 1.0, res)
    yield from points("diagonal", [(v, v, v) for v in grid])
    yield from points("axis_1", [(v, 0.5, 0.5) for v in grid])
    yield from points("axis_2", [(0.5, v, 0.5) for v in grid])
    yield from points("axis_3", [(0.5, 0.5, v) for v in grid])
    yield from points("bisep_A_BC", [(1.0, v, v) for v in grid])
    yield from points("bisep_B_CA", [(v, 1.0, v) for v in grid])
    yield from points("bisep_C_AB", [(v, v, 1.0) for v in grid])

    def slice_points(placement):
        for u in grid:
            for v in np.linspace(max(0.5, 2.0 * u - 1.0), 1.0, res):
                yield placement(u, v)

    yield from points("slice_1", slice_points(lambda u, v: (u, u, v)))
    yield from points("slice_2", slice_points(lambda u, v: (u, v, u)))
    yield from points("slice_3", slice_points(lambda u, v: (v, u, u)))

    facet_maps = (
        ("facet_s1+s2-s3", lambda u, v: (u, v, u + v - 1.0)),
        ("facet_s1+s3-s2", lambda u, v: (u, u + v - 1.0, v)),
        ("facet_s2+s3-s1", lambda u, v: (u + v - 1.0, u, v)),
    )
    for section, placement in facet_maps:
        for t_idx, tri in enumerate(_facet_triangles(res)):
            for v_idx, (u, v) in enumerate(tri):
                s1, s2, s3 = placement(u, v)
                yield f"{section},{t_idx},{v_idx},{s1:.12g},{s2:.12g},{s3:.12g}\n"


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parse_args keeps no
    state from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="hosvd3",
        description="HOSVD decomposition and three-qubit classification tools",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, tol=True, sigma=False):
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                           help=f"arithmetic tolerance (default {DEFAULT_TOL:g})")
        if sigma:
            p.add_argument("--sigma-tol", dest="sigma_tol", type=float,
                           default=DEFAULT_SIGMA_TOL,
                           help=f"sigma equality tolerance (default {DEFAULT_SIGMA_TOL:g})")
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p = sub.add_parser("decompose", help="HOSVD of a state file")
    p.add_argument("input", help="JSON state file")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify", help="classify a three-qubit state file")
    p.add_argument("input", help="JSON state file with dims [2,2,2]")
    common(p, sigma=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sample", help="classify Haar-random states into a CSV")
    p.add_argument("--count", type=int, default=100, help="number of states")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    common(p, sigma=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("polytope-mesh", help="emit polytope plot data as CSV")
    p.add_argument("--resolution", type=int, default=17,
                   help="points per parameter direction (>= 2)")
    common(p, tol=False)
    p.set_defaults(func=cmd_polytope_mesh)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args.output)
    except (InputError, ShapeError, DomainError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        mode = f" (mode {exc.mode})" if exc.mode is not None else ""
        print(f"numerical error{mode}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
