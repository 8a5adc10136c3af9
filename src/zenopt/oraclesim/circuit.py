"""Gate-level circuit IR with mid-circuit measurement and classical control.

The gate set is what the constraint oracles need: H, X, phase, multi-
controlled phase, CNOT, measurement into classical bits, reset, and
classically-conditioned gates. Circuits serialize to a line-oriented text
format, one op per line, with exact decimal angles so import/export
round-trips bit-exactly:

    QUBITS 5
    CLBITS 3
    H 0
    CP 0,1 2 0.7853981633974483
    PHASE 2 1.5707963267948966
    CNOT 0 1
    MEASURE 3 -> c0
    CCOND c0 PHASE 2 1.5707963267948966
    RESET 3
    BARRIER

Qubit indices are little-endian register positions (bit j of a basis index
is qubit j), matching the matrix-level modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class H:
    qubit: int


@dataclass(frozen=True)
class X:
    qubit: int


@dataclass(frozen=True)
class Phase:
    qubit: int
    angle: float


@dataclass(frozen=True)
class CPhase:
    controls: tuple[int, ...]
    target: int
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(sorted(self.controls)))


@dataclass(frozen=True)
class CNOT:
    control: int
    target: int


@dataclass(frozen=True)
class Measure:
    qubit: int
    clbit: int


@dataclass(frozen=True)
class Reset:
    qubit: int


@dataclass(frozen=True)
class Conditional:
    """Apply ``gate`` when the classical bit reads 1."""

    clbit: int
    gate: "Op"


@dataclass(frozen=True)
class Barrier:
    pass


Op = H | X | Phase | CPhase | CNOT | Measure | Reset | Conditional | Barrier

UNITARY_OPS = (H, X, Phase, CPhase, CNOT)


class Circuit:
    """Ordered op list over ``num_qubits`` qubits and ``num_clbits`` bits."""

    def __init__(self, num_qubits: int, num_clbits: int = 0):
        if num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        if num_clbits < 0:
            raise ValueError("negative classical bit count")
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.ops: list[Op] = []

    # -- construction --------------------------------------------------

    def _check_qubit(self, q: int) -> None:
        if not (0 <= q < self.num_qubits):
            raise ValueError(f"qubit {q} out of range [0, {self.num_qubits})")

    def _check_clbit(self, c: int) -> None:
        if not (0 <= c < self.num_clbits):
            raise ValueError(f"classical bit {c} out of range [0, {self.num_clbits})")

    def _check_angle(self, angle: float) -> float:
        angle = float(angle)
        if not math.isfinite(angle):
            raise ValueError("gate angle must be finite")
        return angle

    def append(self, op: Op) -> "Circuit":
        match op:
            case H(q) | X(q) | Reset(q):
                self._check_qubit(q)
            case Phase(q, a):
                self._check_qubit(q)
                self._check_angle(a)
            case CPhase(controls, target, a):
                for q in controls:
                    self._check_qubit(q)
                self._check_qubit(target)
                if target in controls:
                    raise ValueError("controlled-phase target collides with a control")
                self._check_angle(a)
            case CNOT(c, t):
                self._check_qubit(c)
                self._check_qubit(t)
                if c == t:
                    raise ValueError("CNOT control equals target")
            case Measure(q, c):
                self._check_qubit(q)
                self._check_clbit(c)
            case Conditional(c, gate):
                self._check_clbit(c)
                if isinstance(gate, (Measure, Reset, Conditional, Barrier)):
                    raise ValueError("only unitary gates can be classically conditioned")
                self.append(gate)
                self.ops.pop()
            case Barrier():
                pass
            case _:
                raise TypeError(f"unknown op {op!r}")
        self.ops.append(op)
        return self

    def h(self, q: int) -> "Circuit":
        return self.append(H(q))

    def x(self, q: int) -> "Circuit":
        return self.append(X(q))

    def phase(self, q: int, angle: float) -> "Circuit":
        return self.append(Phase(q, float(angle)))

    def cphase(self, controls, target: int, angle: float) -> "Circuit":
        return self.append(CPhase(tuple(controls), target, float(angle)))

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.append(CNOT(control, target))

    def measure(self, qubit: int, clbit: int) -> "Circuit":
        return self.append(Measure(qubit, clbit))

    def reset(self, qubit: int) -> "Circuit":
        return self.append(Reset(qubit))

    def conditional(self, clbit: int, gate: Op) -> "Circuit":
        return self.append(Conditional(clbit, gate))

    def barrier(self) -> "Circuit":
        return self.append(Barrier())

    def extend(self, ops) -> "Circuit":
        for op in ops:
            self.append(op)
        return self

    # -- structure -----------------------------------------------------

    def is_unitary_only(self) -> bool:
        return all(isinstance(op, UNITARY_OPS + (Barrier,)) for op in self.ops)

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"Circuit(qubits={self.num_qubits}, clbits={self.num_clbits}, ops={len(self.ops)})"

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = [f"QUBITS {self.num_qubits}", f"CLBITS {self.num_clbits}"]
        lines.extend(_op_to_line(op) for op in self.ops)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
        match [ln.split() for ln in lines[:2]]:
            case [["QUBITS", nq], ["CLBITS", nc]] if nq.isdecimal() and nc.isdecimal():
                circ = cls(int(nq), int(nc))
            case _:
                raise ValueError("circuit text must start with QUBITS and CLBITS headers")
        for line in lines[2:]:
            circ.append(_op_from_line(line))
        return circ


def inverted(ops) -> list[Op]:
    """Inverse of a unitary-only op sequence (reversed, angles negated)."""
    out: list[Op] = []
    for op in reversed(list(ops)):
        match op:
            case H() | X() | CNOT() | Barrier():
                out.append(op)
            case Phase(q, a):
                out.append(Phase(q, -a))
            case CPhase(controls, target, a):
                out.append(CPhase(controls, target, -a))
            case _:
                raise ValueError(f"cannot invert non-unitary op {op!r}")
    return out


def _fmt_angle(angle: float) -> str:
    return repr(float(angle))


def _op_to_line(op: Op) -> str:
    match op:
        case H(q):
            return f"H {q}"
        case X(q):
            return f"X {q}"
        case Phase(q, a):
            return f"PHASE {q} {_fmt_angle(a)}"
        case CPhase(controls, target, a):
            ctrl = ",".join(str(c) for c in controls) if controls else "-"
            return f"CP {ctrl} {target} {_fmt_angle(a)}"
        case CNOT(c, t):
            return f"CNOT {c} {t}"
        case Measure(q, c):
            return f"MEASURE {q} -> c{c}"
        case Reset(q):
            return f"RESET {q}"
        case Conditional(c, gate):
            return f"CCOND c{c} {_op_to_line(gate)}"
        case Barrier():
            return "BARRIER"
    raise TypeError(f"unknown op {op!r}")


def _op_from_line(line: str) -> Op:
    op = _parse_line(line)
    # Extra tokens would otherwise be dropped, reading the line as another op.
    if len(line.split()) != len(_op_to_line(op).split()):
        raise ValueError(f"malformed circuit line: {line!r}")
    return op


def _parse_line(line: str) -> Op:
    parts = line.split()
    kind = parts[0]
    try:
        if kind == "H":
            return H(int(parts[1]))
        if kind == "X":
            return X(int(parts[1]))
        if kind == "PHASE":
            return Phase(int(parts[1]), float(parts[2]))
        if kind == "CP":
            controls = () if parts[1] == "-" else tuple(int(c) for c in parts[1].split(","))
            return CPhase(controls, int(parts[2]), float(parts[3]))
        if kind == "CNOT":
            return CNOT(int(parts[1]), int(parts[2]))
        if kind == "MEASURE":
            if parts[2] != "->" or not parts[3].startswith("c"):
                raise ValueError
            return Measure(int(parts[1]), int(parts[3][1:]))
        if kind == "RESET":
            return Reset(int(parts[1]))
        if kind == "CCOND":
            if not parts[1].startswith("c"):
                raise ValueError
            return Conditional(int(parts[1][1:]), _parse_line(" ".join(parts[2:])))
        if kind == "BARRIER":
            return Barrier()
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed circuit line: {line!r}") from exc
    raise ValueError(f"unknown op kind in line: {line!r}")
