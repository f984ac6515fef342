"""Hand-written direct-sum complexes: the reference the builders of
``hkrlab.chain_core.total_complex`` are tested against.

Each function here is the loop the package used before every Hom, tensor,
Cech and total complex went through ``total_complex``, kept unchanged:
it lays out the labelled blocks by total degree and assembles the
differential one label at a time.  ``reference_totalize`` also keeps the
separate checks the old double-complex class made before totalizing (the
rows, the columns and the squares), so a test can compare which inputs
each side rejects.  ``reference_cech_complex`` keeps its twisted leading
face, and ``reference_cech_total_complex`` builds each twisted row as a
complex of its own; both read a chart change as a ``LinMap``, which
``linmap_of_columns`` makes from the sparse rational columns the package
keeps.
"""

from __future__ import annotations

from functools import partial

from hkrlab.chain_core import CochainComplex, hom_module, tensor_module
from hkrlab.modules import BasedModule, LinMap, QBasis, Vec


def linmap_of_columns(source, target, cols):
    """The LinMap source -> target with the sparse rational columns cols
    over QBasis(source) -> QBasis(target), read off its columns at the pairs
    (label, 1)."""
    src, tgt = QBasis(source), QBasis(target)
    unit = source.algebra.constant_exps
    return LinMap(source, target, {lab: tgt.unflatten(cols[src.index[(lab, unit)]]) for lab in source.labels})


def reference_hom_complex(C, D):
    """Hom complex with differential d o f - (-1)^{|f|} f o d."""
    algebra = C.algebra
    cdegs, ddegs = C.degrees(), D.degrees()
    modules = {}
    for m in cdegs:
        for n in ddegs:
            deg = n - m
            pairs = modules.setdefault(deg, [])
            pairs.append((m, n))
    hom_modules = {}
    for deg, pairs in modules.items():
        labels, grades = [], []
        for m, n in pairs:
            hm = hom_module(C.module(m), D.module(n))
            for lab, g in zip(hm.labels, hm.grades):
                labels.append((m, lab))
                grades.append(g)
        hom_modules[deg] = BasedModule(algebra, labels, f"Hom(C,D)^{deg}", grades)
    diffs = {}
    for deg in sorted(hom_modules):
        src = hom_modules[deg]
        tgt = hom_modules.get(deg + 1)
        if tgt is None:
            continue
        dmap = LinMap(src, tgt)
        for m, (a, b) in src.labels:
            # elementary map sending basis vector a of C^m to b of D^{m+deg}
            # post-compose with d_D
            img = D.diff(m + deg).apply(D.module(m + deg).basis_vec(b))
            terms = [((m, (a, b2)), c) for b2, c in img.data.items()]
            # pre-compose with d_C, Koszul sign -(-1)^deg
            sgn = -1 if deg % 2 == 0 else 1
            dC = C.diff(m - 1)
            for a2 in dC.source.labels:
                colv = dC.cols.get(a2)
                if colv is not None:
                    terms.append(((m - 1, (a2, b)), colv.coeff(a) * sgn))
            dmap.set_column((m, (a, b)), tgt.element(terms))
        diffs[deg] = dmap
    return CochainComplex(algebra, hom_modules, diffs, check=True)


def reference_tensor_complex(C, D):
    """Tensor product complex with d(x tensor y) = dx tensor y + (-1)^{|x|} x tensor dy."""
    algebra = C.algebra
    modules = {}
    for m in C.degrees():
        for n in D.degrees():
            modules.setdefault(m + n, []).append((m, n))
    t_modules = {}
    for deg, pairs in modules.items():
        labels, grades = [], []
        for m, n in pairs:
            tm = tensor_module(C.module(m), D.module(n))
            for lab, g in zip(tm.labels, tm.grades):
                labels.append((m, lab))
                grades.append(g)
        t_modules[deg] = BasedModule(algebra, labels, f"(C(x)D)^{deg}", grades)
    diffs = {}
    for deg in sorted(t_modules):
        src = t_modules[deg]
        tgt = t_modules.get(deg + 1)
        if tgt is None:
            continue
        dmap = LinMap(src, tgt)
        for m, (a, b) in src.labels:
            n = deg - m
            img = C.diff(m).apply(C.module(m).basis_vec(a))
            terms = [((m + 1, (a2, b)), c) for a2, c in img.data.items()]
            sgn = -1 if m % 2 else 1
            img = D.diff(n).apply(D.module(n).basis_vec(b))
            terms += [((m, (a, b2)), c * sgn) for b2, c in img.data.items()]
            dmap.set_column((m, (a, b)), tgt.element(terms))
        diffs[deg] = dmap
    return CochainComplex(algebra, t_modules, diffs, check=True)


def reference_totalize(algebra, modules, horiz, vert):
    """Total complex of the double complex {(i, j): module} with the maps
    horiz[(i, j)] and vert[(i, j)]; the vertical differential picks up the
    sign (-1)^i.  Rows, columns and squares are checked first, each with
    its own message, then the total checks d o d."""
    horiz = {k: v for k, v in horiz.items() if v is not None and not v.is_zero()}
    vert = {k: v for k, v in vert.items() if v is not None and not v.is_zero()}

    def module(ij):
        return modules.get(ij) or BasedModule(algebra, (), name="0")

    def h(ij):
        i, j = ij
        return horiz.get(ij) or LinMap.zero(module(ij), module((i + 1, j)))

    def v(ij):
        i, j = ij
        return vert.get(ij) or LinMap.zero(module(ij), module((i, j + 1)))

    for i, j in modules:
        if not h((i + 1, j)).compose(h((i, j))).is_zero():
            raise ValueError(f"horizontal d^2 != 0 at {(i, j)}")
    for i, j in modules:
        if not v((i, j + 1)).compose(v((i, j))).is_zero():
            raise ValueError(f"vertical d^2 != 0 at {(i, j)}")
        lhs = v((i + 1, j)).compose(h((i, j)))
        rhs = h((i, j + 1)).compose(v((i, j)))
        if not (lhs - rhs).is_zero():
            raise ValueError(f"square at {(i, j)} does not commute")

    spots = {}
    for i, j in modules:
        spots.setdefault(i + j, []).append((i, j))
    t_modules = {}
    for n, ijs in spots.items():
        labels, grades = [], []
        for ij in sorted(ijs):
            M = module(ij)
            for lab, g in zip(M.labels, M.grades):
                labels.append((ij, lab))
                grades.append(g)
        t_modules[n] = BasedModule(algebra, labels, f"Tot^{n}", grades)
    diffs = {}
    for n in sorted(t_modules):
        src = t_modules[n]
        tgt = t_modules.get(n + 1)
        if tgt is None:
            continue
        dmap = LinMap(src, tgt)
        for (i, j), lab in src.labels:
            x = module((i, j)).basis_vec(lab)
            img = h((i, j)).apply(x)
            terms = [(((i + 1, j), lab2), c) for lab2, c in img.data.items()]
            sgn = -1 if i % 2 else 1
            img = v((i, j)).apply(x)
            terms += [(((i, j + 1), lab2), c * sgn) for lab2, c in img.data.items()]
            dmap.set_column(((i, j), lab), tgt.element(terms))
        diffs[n] = dmap
    return CochainComplex(algebra, t_modules, diffs, check=True)


def reference_cech_complex(nerve, module, transitions=None):
    """The sorted-simplex Cech complex of a (possibly twisted) local system;
    the leading face is twisted through transitions(t[0], t[1])."""
    algebra = module.algebra
    modules = {}
    for l in range(nerve.depth + 1):
        labels = []
        grades = []
        for s in nerve.simplices_of_dim(l):
            for lab, g in zip(module.labels, module.grades):
                labels.append((s, lab))
                grades.append(g)
        modules[l] = BasedModule(algebra, tuple(labels), f"C^{l}({module.name})", tuple(grades))
    diffs = {}
    for l in range(nerve.depth):
        src, tgt = modules[l], modules[l + 1]
        d = LinMap(src, tgt)
        for (s, lab) in src.labels:
            terms = []
            for t, k in nerve.cofaces[s]:
                if k == 0 and transitions is not None:
                    conv = transitions(t[0], t[1]).apply(module.basis_vec(lab))
                    terms += [((t, lab2), c) for lab2, c in conv.data.items()]
                else:
                    terms.append(((t, lab), (-1) ** k))
            d.set_column((s, lab), tgt.element(terms))
        diffs[l] = d
    return CochainComplex(algebra, modules, diffs)


def reference_cech_total_complex(nerve, columns, vertical, transitions=None):
    """Tot of the Cech double complex of a complex of local systems: spot
    (l, j) holds the Cech l-cochains of columns[j], vertical[j] acts
    chart by chart, and transitions(j, a, b), sparse rational columns over
    QBasis(columns[j]), twists column j."""

    def chart_change(j, a, b):
        return linmap_of_columns(columns[j], columns[j], transitions(j, a, b))

    cech = {
        j: reference_cech_complex(nerve, M, None if transitions is None else partial(chart_change, j))
        for j, M in columns.items()
    }
    vert = {}
    for j, v in vertical.items():
        images = {lab: v.apply(columns[j].basis_vec(lab)) for lab in columns[j].labels}
        for l in cech[j].degrees():
            src, tgt = cech[j].module(l), cech[j + 1].module(l)
            d = LinMap(src, tgt)
            for (s, lab) in src.labels:
                d.set_column((s, lab), Vec(tgt, {(s, lab2): c for lab2, c in images[lab].data.items()}))
            vert[(l, j)] = d
    modules, horiz = {}, {}
    for j, C in cech.items():
        for i in C.degrees():
            modules[(i, j)] = C.module(i)
        for i, d in C.diffs.items():
            horiz[(i, j)] = d
    algebra = next(iter(columns.values())).algebra
    return reference_totalize(algebra, modules, horiz, vert)
