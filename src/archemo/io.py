"""Flat-file serialization: CSV for inspection, npz containers for exactness.

CSV numbers are written with 17 significant digits so that a read-back
reproduces the double exactly; the npz container stores the raw arrays and is
bit-exact by construction.  All writers are deterministic: no timestamps, no
environment-dependent content, fixed key order.
"""

from __future__ import annotations

import io as _io
import zipfile

import numpy as np

from .forward import MeasurementRecord, Trajectory
from .grid import Domain

__all__ = [
    "trajectory_to_csv",
    "trajectory_to_npz",
    "trajectory_from_npz",
    "measurement_to_csv",
    "measurement_to_npz",
    "measurement_from_npz",
    "variation_stack_to_csv",
    "variation_stack_to_npz",
    "variation_stack_from_npz",
    "field_to_csv",
    "fmt",
]


def fmt(x) -> str:
    """Full round-trip decimal form of a double (17 significant digits)."""
    return f"{float(x):.17g}"


def _coordinate_columns(domain: Domain):
    if domain.dim == 1:
        return ["x"], [domain.axes[0]]
    X, Y = domain.meshgrid()
    return ["x", "y"], [X.ravel(), Y.ravel()]


def _write_node_rows(fh, lead, coords, nodes, values):
    """One line per node: the ``lead`` fields, the node's coordinates, then its
    entry in each of ``values`` (arrays indexed by position in ``nodes``)."""
    for j, node in enumerate(nodes):
        cols = lead + [fmt(c[node]) for c in coords] + [fmt(a[j]) for a in values]
        fh.write(",".join(cols) + "\n")


def trajectory_to_csv(path, traj: Trajectory):
    """One row per (time, node): t,x[,y],u,v,w."""
    names, coords = _coordinate_columns(traj.domain)
    nodes = range(traj.domain.node_count)
    with open(path, "w") as fh:
        fh.write("t," + ",".join(names) + ",u,v,w\n")
        for i, t in enumerate(traj.times):
            _write_node_rows(fh, [fmt(t)], coords, nodes,
                             [a[i].ravel() for a in (traj.u, traj.v, traj.w)])


def _savez_deterministic(path, **arrays):
    """np.savez with a fixed zip timestamp so identical data gives identical bytes."""
    with zipfile.ZipFile(path, mode="w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = _io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def trajectory_to_npz(path, traj: Trajectory):
    _savez_deterministic(
        path,
        lengths=np.array(traj.domain.lengths),
        cells=np.array(traj.domain.cells, dtype=np.int64),
        times=traj.times, u=traj.u, v=traj.v, w=traj.w,
    )


def trajectory_from_npz(path) -> Trajectory:
    with np.load(path) as data:
        domain = Domain(tuple(data["lengths"]), tuple(int(c) for c in data["cells"]))
        return Trajectory(domain, data["times"], data["u"], data["v"], data["w"])


def measurement_to_csv(path_base, rec: MeasurementRecord, domain: Domain):
    """Boundary traces to <base>_traces.csv, final fields to <base>_final.csv."""
    names, coords = _coordinate_columns(domain)
    idx = rec.boundary_flat_indices
    with open(f"{path_base}_traces.csv", "w") as fh:
        fh.write("t," + ",".join(names) + ",u,v,w\n")
        for i, t in enumerate(rec.times):
            _write_node_rows(fh, [fmt(t)], coords, idx,
                             [rec.boundary_u[i], rec.boundary_v[i], rec.boundary_w[i]])
    with open(f"{path_base}_final.csv", "w") as fh:
        fh.write("t," + ",".join(names) + ",u,v,w\n")
        _write_node_rows(fh, [fmt(rec.times[-1])], coords, range(domain.node_count),
                         [rec.final_u.ravel(), rec.final_v.ravel(), rec.final_w.ravel()])


def measurement_to_npz(path, rec: MeasurementRecord, domain: Domain):
    _savez_deterministic(
        path,
        lengths=np.array(domain.lengths),
        cells=np.array(domain.cells, dtype=np.int64),
        times=rec.times,
        boundary_u=rec.boundary_u, boundary_v=rec.boundary_v, boundary_w=rec.boundary_w,
        final_u=rec.final_u, final_v=rec.final_v, final_w=rec.final_w,
        boundary_flat_indices=rec.boundary_flat_indices,
    )


def measurement_from_npz(path):
    with np.load(path) as data:
        domain = Domain(tuple(data["lengths"]), tuple(int(c) for c in data["cells"]))
        rec = MeasurementRecord(
            times=data["times"],
            boundary_u=data["boundary_u"], boundary_v=data["boundary_v"],
            boundary_w=data["boundary_w"],
            final_u=data["final_u"], final_v=data["final_v"], final_w=data["final_w"],
            boundary_flat_indices=data["boundary_flat_indices"],
        )
        return rec, domain


def variation_stack_to_csv(path, stack):
    """Same row layout as a trajectory, with order and provenance columns."""
    names, coords = _coordinate_columns(stack.order1.domain)
    nodes = range(stack.order1.domain.node_count)
    with open(path, "w") as fh:
        fh.write("order,provenance,t," + ",".join(names) + ",u,v,w\n")
        for order, tr in ((1, stack.order1), (2, stack.order2)):
            for i, t in enumerate(tr.times):
                _write_node_rows(fh, [str(order), stack.provenance, fmt(t)], coords, nodes,
                                 [a[i].ravel() for a in (tr.u, tr.v, tr.w)])


def variation_stack_to_npz(path, stack):
    first, second = stack.order1, stack.order2
    _savez_deterministic(
        path,
        lengths=np.array(first.domain.lengths),
        cells=np.array(first.domain.cells, dtype=np.int64),
        times=first.times,
        u1=first.u, v1=first.v, w1=first.w,
        u2=second.u, v2=second.v, w2=second.w,
        provenance=np.array(stack.provenance),
    )


def variation_stack_from_npz(path):
    from .variation import VariationStack
    with np.load(path) as data:
        missing = [name for name in ("u2", "v2", "w2") if name not in data]
        if missing:
            raise ValueError(
                f"{path}: variation stack lacks its second order ({', '.join(missing)})")
        domain = Domain(tuple(data["lengths"]), tuple(int(c) for c in data["cells"]))
        order1 = Trajectory(domain, data["times"], data["u1"], data["v1"], data["w1"])
        order2 = Trajectory(domain, data["times"], data["u2"], data["v2"], data["w2"])
        return VariationStack(order1=order1, order2=order2,
                              provenance=str(data["provenance"]))


def field_to_csv(path, domain: Domain, values):
    names, coords = _coordinate_columns(domain)
    flat = np.asarray(values).ravel()
    with open(path, "w") as fh:
        fh.write(",".join(names) + ",value\n")
        _write_node_rows(fh, [], coords, range(domain.node_count), [flat])
