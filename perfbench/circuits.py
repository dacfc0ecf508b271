"""Seeded random circuits and the benchmark's own checks on circuits.

Circuits are plain op lists generated here from a ``random.Random``;
the program only ever sees them as builder calls or as Quipper-ASCII
text.  The hierarchy walker below counts gates without the program's
counting code, so the estimate and service workloads can check
``count()`` answers against a computation made apart from them.
"""

from __future__ import annotations

import random

#: One-qubit gates the generator draws; each emits exactly one gate.
PLAIN = ("H", "X", "Y", "Z", "S", "T")
ROTATIONS = ("Rz", "Rx", "Ry")
CLIFFORD = ("H", "S", "X", "Z")


def random_ops(rnd: random.Random, width: int, length: int, *,
               clifford: bool = False) -> list[tuple]:
    """A random op list over *width* qubits, *length* gates long.

    An op is ``(name, target, controls, inverted, param)``; ``swap``
    puts the second qubit in *controls*' place as ``(other,)`` with
    ``param`` ``"swap"``.  With *clifford* only Clifford gates are drawn
    (H, S, X, Z, CNOT, swap), so the Clifford decider can settle proofs
    at any width.
    """
    ops = []
    for _ in range(length):
        roll = rnd.random()
        target = rnd.randrange(width)
        others = [w for w in range(width) if w != target]
        if clifford:
            if roll < 0.5:
                ops.append((rnd.choice(CLIFFORD), target, (), False, None))
            elif roll < 0.9:
                ops.append(("X", target, (rnd.choice(others),), False, None))
            else:
                ops.append(("swap", target, (rnd.choice(others),), False,
                            "swap"))
        elif roll < 0.35:
            ops.append((rnd.choice(PLAIN), target, (), rnd.random() < 0.3,
                        None))
        elif roll < 0.55:
            ops.append((rnd.choice(ROTATIONS), target, (), False,
                        round(rnd.uniform(-3.0, 3.0), 6)))
        elif roll < 0.8:
            ops.append((rnd.choice(("X", "Z")), target,
                        (rnd.choice(others),), False, None))
        elif roll < 0.9:
            ops.append(("X", target, tuple(rnd.sample(others, 2)), False,
                        None))
        else:
            ops.append(("swap", target, (rnd.choice(others),), False,
                        "swap"))
    return ops


def emit_ops(qc, qs, ops) -> list:
    """Emit *ops* through the program's circuit builder; returns *qs*."""
    for name, target, controls, inverted, param in ops:
        if param == "swap":
            qc.named_gate("swap", qs[target], qs[controls[0]])
            continue
        kwargs = {} if param is None else {"param": param}
        qc.named_gate(
            name, qs[target], controls=[qs[c] for c in controls] or None,
            inverted=inverted, **kwargs,
        )
    return qs


def ops_program(width: int, ops, name: str = "random"):
    """The op list as a lazy Program over *width* qubit inputs."""
    from repro import Program, qubit

    return Program.capture(
        lambda qc, qs: emit_ops(qc, list(qs), ops), [qubit] * width,
        name=name,
    )


def identity_program(width: int):
    """The empty circuit over *width* qubits (the identity)."""
    from repro import Program, qubit

    return Program.capture(lambda qc, qs: qs, [qubit] * width,
                           name="identity")


def follow_with_inverse(program, width: int):
    """``program`` followed by ``program.inverse()`` as one Program.

    Both stored circuits are spliced in through the builder, the second
    bound to the first's outputs, so the composite is built from the
    program's own ``inverse``.
    """
    from repro import Program, qubit

    forward = program.bcircuit.circuit
    backward = program.inverse().bcircuit.circuit

    def both(qc, qs):
        qs = list(qs)
        mapping = qc.append_circuit(
            forward, {w: q.wire_id for (w, _), q in zip(forward.inputs, qs)}
        )
        middle = [mapping[w] for w, _ in forward.outputs]
        mapping = qc.append_circuit(
            backward,
            {w: m for (w, _), m in zip(backward.inputs, middle)},
        )
        return [type(qs[0])(mapping[w]) for w, _ in backward.outputs]

    return Program.capture(both, [qubit] * width, name="p-then-inverse")


# -- the benchmark's own walk over a built hierarchy ---------------------------


def recount(bc) -> tuple[int, dict[int, int], int]:
    """Count the inlined gates of *bc* without the program's counter.

    Body counts are computed once per subroutine and multiplied through
    call sites and repetitions.  Returns ``(total, by_arity, over)``:
    the total gate count, a histogram of gates by number of controls,
    and how many gates break the Toffoli base (a NOT with more than two
    controls, or any other gate with more than one).
    """
    memo: dict[str, tuple[int, dict[int, int], int]] = {}

    def body(circuit) -> tuple[int, dict[int, int], int]:
        total, over = 0, 0
        arity: dict[int, int] = {}
        for gate in circuit.gates:
            kind = type(gate).__name__
            if kind == "Comment":
                continue
            if kind == "BoxCall":
                if gate.name not in memo:
                    memo[gate.name] = body(bc.namespace[gate.name].circuit)
                sub_total, sub_arity, sub_over = memo[gate.name]
                reps = gate.repetitions
                total += sub_total * reps
                over += sub_over * reps
                for k, v in sub_arity.items():
                    arity[k] = arity.get(k, 0) + v * reps
                continue
            controls = len(getattr(gate, "controls", ()))
            total += 1
            arity[controls] = arity.get(controls, 0) + 1
            is_not = kind == "CNot" or (
                kind == "NamedGate" and gate.name in ("not", "Not", "X")
            )
            if controls > (2 if is_not else 1):
                over += 1
        return total, arity, over

    return body(bc.circuit)


def arity_histogram(counts) -> dict[int, int]:
    """The program's ``count()`` Counter folded to gates by control count."""
    arity: dict[int, int] = {}
    for (_, pos, neg), value in counts.items():
        arity[pos + neg] = arity.get(pos + neg, 0) + int(value)
    return arity
