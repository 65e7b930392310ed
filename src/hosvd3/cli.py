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
import sys

import numpy as np

from .errors import DomainError, NumericalError, ShapeError, ValidationError
from .hosvd import hosvd
from .qubit3 import PolytopePoint, classify, normalize, polytope_membership
from .tensor import make_tensor

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_TOL = 1e-10
DEFAULT_SIGMA_TOL = 1e-8
GENERATOR_NAME = "philox4x64"


class InputError(ValueError):
    """Input file or flag value is unusable."""


def read_state_file(path):
    """Parse a JSON state file into (dims, flat complex amplitudes, label)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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


def haar_random_amplitudes(rng) -> np.ndarray:
    """One Haar-random pure 3-qubit state: 8 standard complex Gaussians, normalized."""
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return (z / np.linalg.norm(z)).reshape(2, 2, 2)


def _tolerance(flag: str, value: float) -> float:
    if not 0.0 <= value < math.inf:
        raise InputError(f"{flag} must be finite and >= 0, got {value!r}")
    return value


def _pairs(values: np.ndarray) -> list:
    """[re, im] pairs of Python floats, nested like values."""
    return np.stack((values.real, values.imag), axis=-1).tolist()


def _emit(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_decompose(args) -> int:
    tol = _tolerance("--tol", args.tol)
    dims, amps, label = read_state_file(args.input)
    result = hosvd(make_tensor(dims, amps), tol=tol)
    doc = {
        "command": "decompose",
        "label": label,
        "dims": dims,
        "tol": tol,
        "factors": [_pairs(u) for u in result.factors],
        "core": _pairs(result.core.data.ravel()),
        "spectra": [[float(v) for v in spec] for spec in result.spectra],
        "residuals": {
            "reconstruction": result.residuals.reconstruction,
            "all_orthogonality": result.residuals.all_orthogonality,
        },
        "degenerate_modes": sorted(result.degenerate_modes),
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    tol = _tolerance("--tol", args.tol)
    sigma_tol = _tolerance("--sigma-tol", args.sigma_tol)
    dims, amps, label = read_state_file(args.input)
    if dims != [2, 2, 2]:
        raise InputError(f"classify needs dims [2, 2, 2], got {dims}")
    state = normalize(amps)
    cls = classify(state, tol=tol, sigma_tol=sigma_tol)
    point = PolytopePoint(*cls.sigma_triple)
    membership = polytope_membership(point, tol=tol)
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
            "point": [point.s1, point.s2, point.s3],
            "clamped": list(point.clamped()),
            "member": membership.member,
            "facet_residuals": membership.residuals,
        },
        "residuals": cls.residuals,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_sample(args) -> int:
    tol = _tolerance("--tol", args.tol)
    sigma_tol = _tolerance("--sigma-tol", args.sigma_tol)
    if args.count < 1:
        raise InputError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.Generator(np.random.Philox(args.seed))
    lines = [
        f"# generator={GENERATOR_NAME} seed={args.seed} count={args.count}"
        f" tol={tol:g} sigma_tol={sigma_tol:g}",
        "id,s1,s2,s3,separability,case,special",
    ]
    violations = 0
    for i in range(args.count):
        state = normalize(haar_random_amplitudes(rng))
        cls = classify(state, tol=tol, sigma_tol=sigma_tol)
        s1, s2, s3 = cls.sigma_triple
        point = PolytopePoint(s1, s2, s3)
        if not polytope_membership(point, tol=tol):
            violations += 1
        lines.append(
            f"{i},{s1:.12g},{s2:.12g},{s3:.12g},"
            f"{cls.separability},{cls.case},{cls.special}"
        )
    lines.append(f"# polytope_violations={violations}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _facet_triangles(resolution: int):
    # barycentric subdivision of the parameter triangle with corners
    # (0.5, 1.0), (1.0, 0.5), (1.0, 1.0); every point stays on the facet.
    r = resolution - 1
    corners = np.array([[0.5, 1.0], [1.0, 0.5], [1.0, 1.0]])

    def point(i, j):
        w = np.array([r - i - j, i, j], dtype=float) / r
        return w @ corners

    triangles = []
    for i in range(r):
        for j in range(r - i):
            triangles.append((point(i, j), point(i + 1, j), point(i, j + 1)))
            if i + j < r - 1:
                triangles.append((point(i + 1, j), point(i + 1, j + 1), point(i, j + 1)))
    return triangles


def cmd_polytope_mesh(args) -> int:
    if args.resolution < 2:
        raise InputError(f"--resolution must be >= 2, got {args.resolution}")
    res = args.resolution
    lines = [f"# polytope mesh resolution={res}", "section,element,vertex,s1,s2,s3"]

    def emit_points(section, triples):
        for idx, (s1, s2, s3) in enumerate(triples):
            lines.append(f"{section},{idx},0,{s1:.12g},{s2:.12g},{s3:.12g}")

    grid = np.linspace(0.5, 1.0, res)
    emit_points("diagonal", [(v, v, v) for v in grid])
    emit_points("axis_1", [(v, 0.5, 0.5) for v in grid])
    emit_points("axis_2", [(0.5, v, 0.5) for v in grid])
    emit_points("axis_3", [(0.5, 0.5, v) for v in grid])
    emit_points("bisep_A_BC", [(1.0, v, v) for v in grid])
    emit_points("bisep_B_CA", [(v, 1.0, v) for v in grid])
    emit_points("bisep_C_AB", [(v, v, 1.0) for v in grid])

    def slice_points(placement):
        pts = []
        for u in grid:
            for v in np.linspace(max(0.5, 2.0 * u - 1.0), 1.0, res):
                pts.append(placement(u, v))
        return pts

    emit_points("slice_1", slice_points(lambda u, v: (u, u, v)))
    emit_points("slice_2", slice_points(lambda u, v: (u, v, u)))
    emit_points("slice_3", slice_points(lambda u, v: (v, u, u)))

    facet_maps = (
        ("facet_s1+s2-s3", lambda u, v: (u, v, u + v - 1.0)),
        ("facet_s1+s3-s2", lambda u, v: (u, u + v - 1.0, v)),
        ("facet_s2+s3-s1", lambda u, v: (u + v - 1.0, u, v)),
    )
    triangles = _facet_triangles(res)
    for section, placement in facet_maps:
        for t_idx, tri in enumerate(triangles):
            for v_idx, (u, v) in enumerate(tri):
                s1, s2, s3 = placement(u, v)
                lines.append(
                    f"{section},{t_idx},{v_idx},{s1:.12g},{s2:.12g},{s3:.12g}"
                )

    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
