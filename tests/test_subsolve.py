"""Substructure set-up and the reduced interface operator."""
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps

from darcydd.assembly import assemble, full_solve_direct, mass_balance_residual
from darcydd.errors import ConfigurationError, SingularSystemError
from darcydd.ldlt import BlockDiagonal, factor_symmetric_indefinite
from darcydd.krylov import PcgConfig, pcg
from darcydd.mesh import (
    NATURAL,
    Element,
    generate_cross_fracture_cube,
    generate_unit_square,
)
from darcydd.partition import Partition, classify_interface, partition_elements
from darcydd.subsolve import (
    InterfaceOperator,
    build_substructures,
    parallel_map,
    recover_solution,
)

from support import (
    boundary_records,
    build_pipeline,
    interface_apply_loop,
    dense_multiplier_system,
    dense_operator,
    dense_schur_oracle,
    hybridized_substructure_blocks,
    mesh_from_elements,
    mp_inverse_form,
    reduced_rhs_loop,
    substructure_views,
)


CASES = [
    ("square4", 2, {}),
    ("square4", 4, {}),
    ("square6", 4, {}),
    ("cube2", 4, {}),
    ("frac2", 2, {}),
    ("frac2", 4, {}),
    ("frac-stiff", 4, {"sigma": 1e6}),
    ("square4", 32, {}),  # one element each: no interior multipliers
]


def make_mesh(name, params, fixtures):
    if name in fixtures:
        return fixtures[name]
    assert name == "frac-stiff"
    return generate_cross_fracture_cube(2, **params)


@pytest.fixture
def fixtures(square4, square6, cube2, frac2):
    return {"square4": square4, "square6": square6, "cube2": cube2, "frac2": frac2}


def setup_case(mesh, n_sub, threads=1):
    system = assemble(mesh)
    partition = partition_elements(mesh, n_sub)
    layout = classify_interface(system, partition)
    subs = build_substructures(system, layout, threads=threads)
    op = InterfaceOperator(subs, layout)
    return system, layout, subs, op


@pytest.mark.parametrize("name,n_sub,params", CASES)
def test_reduced_operator_matches_dense_elimination(name, n_sub, params, fixtures):
    mesh = make_mesh(name, params, fixtures)
    system, layout, subs, op = setup_case(mesh, n_sub)
    s_ref, b_ref = dense_schur_oracle(system, layout)
    s_hat = dense_operator(op.apply, op.n)
    scale = max(1.0, np.abs(s_ref).max())
    assert np.abs(s_hat - s_ref).max() <= 1e-11 * scale
    b_hat = op.reduced_rhs()
    assert np.abs(b_hat - b_ref).max() <= 1e-11 * max(1.0, np.abs(b_ref).max())
    # the reduced operator is symmetric positive definite
    assert np.linalg.eigvalsh(0.5 * (s_hat + s_hat.T)).min() > 0
    # and each local contribution is exactly symmetric and at least
    # positive semidefinite
    for sub in substructure_views(subs):
        s_loc = sub.schur
        assert np.array_equal(s_loc, s_loc.T)
        if s_loc.size:
            eigs = np.linalg.eigvalsh(0.5 * (s_loc + s_loc.T))
            assert eigs.min() >= -1e-9 * max(1.0, eigs.max())


@pytest.mark.parametrize("name,n_sub,params", CASES)
def test_reduced_solve_agrees_with_direct(name, n_sub, params, fixtures):
    mesh = make_mesh(name, params, fixtures)
    system, layout, subs, op = setup_case(mesh, n_sub)
    lam_gamma = sla.solve(
        dense_operator(op.apply, op.n), op.reduced_rhs(), assume_a="pos"
    )
    sol = recover_solution(system, subs, layout, lam_gamma)
    ref = full_solve_direct(system).concatenated()
    err = np.abs(sol.concatenated() - ref).max()
    assert err <= 1e-8 * max(1.0, np.abs(ref).max())
    assert mass_balance_residual(system, sol).max() <= 1e-9
    r = system.full_rhs() - system.full_matrix() @ sol.concatenated()
    assert np.linalg.norm(r) <= 1e-8 * max(1.0, np.linalg.norm(system.full_rhs()))


def test_thread_count_does_not_change_results(frac2):
    """Every result of set-up is bitwise independent of the worker count,
    also where substructures share an interface size and are solved as one
    group: the 9 substructures of the 12 x 12 square have repeated and
    unique interface sizes."""
    square = generate_unit_square(12)
    _, _, subs, _ = setup_case(square, 9)
    views = substructure_views(subs)
    sizes = np.unique([sub.n_gamma for sub in views], return_counts=True)[1]
    assert 1 in sizes and (sizes > 1).any()
    for mesh, n_sub, threads in ((frac2, 4, 4), (square, 9, 3)):
        _, _, subs1, op1 = setup_case(mesh, n_sub, threads=1)
        _, _, subs_t, op_t = setup_case(mesh, n_sub, threads=threads)
        assert np.array_equal(
            dense_operator(op1.apply, op1.n), dense_operator(op_t.apply, op_t.n)
        )
        assert np.array_equal(op1.reduced_rhs(), op_t.reduced_rhs())
        for a, b in zip(
            substructure_views(subs1), substructure_views(subs_t), strict=True
        ):
            assert np.array_equal(a.group.interior._band, b.group.interior._band)
            for name in ("schur", "w", "lam_load", "rhs_share"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_single_substructure_reduces_to_direct(square4):
    system, layout, subs, _ = setup_case(square4, 1)
    views = substructure_views(subs)
    assert len(views) == 1
    assert views[0].n_gamma == 0
    sol = recover_solution(system, subs, layout, np.zeros(0))
    ref = full_solve_direct(system).concatenated()
    assert np.abs(sol.concatenated() - ref).max() <= 1e-10


def test_empty_substructure_rejected(square4):
    system = assemble(square4)
    partition = Partition(3, np.zeros(32, dtype=np.int64))
    layout = classify_interface(system, partition)
    with pytest.raises(ConfigurationError, match="empty"):
        build_substructures(system, layout)


def _relative_gap(got, want) -> float:
    got = got.toarray() if hasattr(got, "toarray") else np.asarray(got)
    assert got.shape == want.shape
    return float(np.abs(got - want).max(initial=0.0)) / max(
        1.0, float(np.abs(want).max(initial=0.0))
    )


@pytest.mark.parametrize(
    "mesh_of,n_sub",
    [
        (lambda: generate_cross_fracture_cube(4), 8),
        (lambda: generate_unit_square(8), 6),
    ],
    ids=["fracture-cube-4", "square-8"],
)
def test_blocks_match_per_substructure_slicing(mesh_of, n_sub):
    """What set-up keeps of the multiplier blocks cut from the one
    block-diagonal matrix, ``W``, ``K_II^-1 rhs_I`` and the share of the
    reduced right-hand side, equals the dense elimination of the multiplier
    blocks left by eliminating velocities and pressures from each
    substructure's saddle blocks, sliced one index set at a time, and every
    local Schur complement equals the one of those saddle blocks."""
    mesh = mesh_of()
    system, layout, subs, _ = setup_case(mesh, n_sub)
    ref = hybridized_substructure_blocks(system, layout)
    views = substructure_views(subs)
    assert len(views) == len(ref) == n_sub
    if len(mesh.couplings):
        # some link multiplier is on the interface, so penalty ownership
        # is covered
        link_mults = system.dof_map.side_mult[mesh.couplings]
        assert np.isin(layout.interface_mults, link_mults).any()
    for sub, want in zip(views, ref):
        assert np.array_equal(sub.interior_mults, want["interior_mults"])
        want["w"] = -sla.solve(want["k_ii"], want["k_ig"])
        want["lam_load"] = sla.solve(want["k_ii"], want["rhs_interior"])
        want["rhs_share"] = want["k_ig"].T @ want["lam_load"] - want["rhs_gamma"]
        for name in ("w", "lam_load", "rhs_share", "schur"):
            assert _relative_gap(getattr(sub, name), want[name]) <= 1e-12, name


def test_blockwise_assembly_covers_global_matrix(frac2):
    """The local interior solutions, Schur complements and load shares
    assemble to the elimination of every interior multiplier from the
    global multiplier system left by eliminating every velocity and
    pressure; in particular each interface penalty is counted once."""
    system, layout, subs, _ = setup_case(frac2, 4)
    k_ref, load_ref = dense_multiplier_system(system)
    gamma = layout.interface_mults
    interior = np.setdiff1d(np.arange(system.n_multiplier), gamma)
    k_ig = k_ref[np.ix_(interior, gamma)]
    # [W, K_II^-1 rhs_I] of the global system, interior rows only
    x_ref = sla.solve(
        k_ref[np.ix_(interior, interior)],
        np.column_stack([-k_ig, load_ref[interior]]),
    )
    n_g = layout.n_interface
    x = np.zeros((system.n_multiplier, n_g + 1))
    schur = np.zeros((n_g, n_g))
    share = np.zeros(n_g)
    for sub in substructure_views(subs):
        x[np.ix_(sub.interior_mults, sub.local_gamma)] = sub.w
        x[sub.interior_mults, -1] = sub.lam_load
        schur[np.ix_(sub.local_gamma, sub.local_gamma)] += sub.schur
        share[sub.local_gamma] += sub.rhs_share
    assert _relative_gap(x[interior, :-1], x_ref[:, :-1]) <= 1e-12
    assert _relative_gap(x[interior, -1], x_ref[:, -1]) <= 1e-12
    schur_ref = -(k_ref[np.ix_(gamma, gamma)] + k_ig.T @ x_ref[:, :-1])
    assert _relative_gap(schur, schur_ref) <= 1e-12
    share_ref = k_ig.T @ x_ref[:, -1] - load_ref[gamma]
    assert _relative_gap(share, share_ref) <= 1e-12


def test_stiffest_penalty_builds_and_matches_oracle():
    """At sigma = 1e9 the interior blocks are definite and the assembled
    local Schur complements match the dense elimination."""
    mesh = generate_cross_fracture_cube(4, sigma=1e9)
    system, layout, subs, _ = setup_case(mesh, 8)
    s_ref, _ = dense_schur_oracle(system, layout)
    total = np.zeros_like(s_ref)
    for sub, blk in zip(
        substructure_views(subs), hybridized_substructure_blocks(system, layout)
    ):
        assert np.linalg.eigvalsh(blk["k_ii"]).max() < 0
        total[np.ix_(sub.local_gamma, sub.local_gamma)] += sub.schur
    assert _relative_gap(total, s_ref) <= 1e-11


def test_sealed_element_is_singular():
    """An element with neither a velocity nor a coupling penalty leaves its
    pressure undetermined: assembly succeeds, the substructure build
    reports a singular system."""
    coords = np.array([
        [0.0, 0, 0], [1, 0, 0], [0, 1, 0],
        [5.0, 0, 0], [6, 0, 0], [5, 1, 0],
    ])
    els = [
        Element(id=i, dim=2, node_ids=nodes, conductivity=np.eye(2),
                cross_section=1.0, source=0.0)
        for i, nodes in enumerate([(0, 1, 2), (3, 4, 5)])
    ]
    bcs = boundary_records([((0, 1), NATURAL, 1.0)])
    system = assemble(mesh_from_elements(coords, els, bcs))
    layout = classify_interface(system, Partition(2, np.array([0, 1])))
    with pytest.raises(SingularSystemError, match=r"element\(s\) \[1\]"):
        build_substructures(system, layout)


def test_zero_load_gives_zero_reduced_rhs(square6):
    system, layout, _, _ = setup_case(square6, 4)
    system.g[:] = 0.0
    system.f[:] = 0.0
    subs = build_substructures(system, layout)
    op = InterfaceOperator(subs, layout)
    assert np.abs(op.reduced_rhs()).max() == 0.0


def test_operator_symmetry_bilinear(cube2, rng):
    _, layout, _, op = setup_case(cube2, 4)
    for _ in range(10):
        x = rng.standard_normal(layout.n_interface)
        y = rng.standard_normal(layout.n_interface)
        lhs = x @ op.apply(y)
        rhs = y @ op.apply(x)
        bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(lhs - rhs) <= bound


def test_recover_backward_error(frac2, rng):
    """Recovery solves each substructure's interior problem ``K_II lam_I =
    rhs_I - K_IG x`` of the hybridized substructure blocks with the kept
    band factors to the factorization's accuracy, and every stored share
    of the reduced right-hand side matches a fresh dense solve."""
    system, layout, subs, _ = setup_case(frac2, 4)
    x = rng.standard_normal(layout.n_interface)
    lam = recover_solution(system, subs, layout, x).lam
    assert np.array_equal(lam[layout.interface_mults], x)
    for sub, blk in zip(
        substructure_views(subs), hybridized_substructure_blocks(system, layout)
    ):
        lam_i = lam[sub.interior_mults]
        rhs = blk["rhs_interior"] - blk["k_ig"] @ x[sub.local_gamma]
        r = rhs - blk["k_ii"] @ lam_i
        assert np.linalg.norm(r) <= 1e-10 * max(1.0, np.linalg.norm(rhs))
        want = blk["k_ig"].T @ sla.solve(blk["k_ii"], blk["rhs_interior"])
        want -= blk["rhs_gamma"]
        got = sub.rhs_share
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_setup_keeps_band_factors_and_no_superlu(frac2, cube2, monkeypatch):
    """Set-up makes one band factorization per distinct interface size
    (frac2: four sizes for four substructures; cube2: one size), each group
    keeps it and no ``W``, set-up makes no SuperLU factorization, so none
    is left alive, and the reduced right-hand side, PCG and recovery still
    match the direct solve."""
    import scipy.sparse.linalg as spla

    import darcydd.subsolve

    real = darcydd.subsolve.factor_symmetric_indefinite
    made = []

    def recording(matrix):
        made.append(real(matrix))
        return made[-1]

    real_splu = spla.splu
    superlu = []

    def counting_splu(*args, **kwargs):
        superlu.append(args)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(darcydd.subsolve, "factor_symmetric_indefinite", recording)
    monkeypatch.setattr(spla, "splu", counting_splu)
    for mesh, n_distinct in ((frac2, 4), (cube2, 1)):
        made.clear()
        pipe = build_pipeline(mesh, 4)
        assert superlu == []
        views = substructure_views(pipe.subs)
        assert len({sub.n_gamma for sub in views}) == n_distinct
        assert len(made) == n_distinct
        for grp, fact in zip(pipe.subs.groups, made, strict=True):
            assert grp.interior is fact and fact.mode == "band"
            assert not hasattr(grp, "w")
        lam, report = pcg(
            pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
            PcgConfig(rel_tol=1e-10),
        )
        assert report.converged
        sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
        sol = sol.concatenated()
        assert superlu == []
        ref = full_solve_direct(pipe.system).concatenated()
        assert len(superlu) == 1  # the direct solve's global matrix
        superlu.clear()
        assert np.abs(sol - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def interface_size_groups(views) -> list[list[int]]:
    """The substructures that share one interior factorization: one list
    per interface size, sizes descending, ids ascending in each; ``views``
    lists every substructure's :class:`SubstructureView`."""
    sizes = sorted({sub.n_gamma for sub in views}, reverse=True)
    return [[sub.sub_id for sub in views if sub.n_gamma == n] for n in sizes]


def record_interior_matrices(monkeypatch) -> list:
    """Make build_substructures' factor_symmetric_indefinite append every
    matrix it receives to the returned list."""
    import darcydd.subsolve

    real = darcydd.subsolve.factor_symmetric_indefinite
    seen = []

    def recording(matrix):
        seen.append(matrix)
        return real(matrix)

    monkeypatch.setattr(darcydd.subsolve, "factor_symmetric_indefinite", recording)
    return seen


def heterogeneous_square(n):
    """``generate_unit_square(n)`` with a smooth conductivity field, so that
    no two substructures have equal interior blocks."""
    return generate_unit_square(
        n, conductivity=lambda c, dim: 1.0 + 3.0 * c[0] + 7.0 * c[1] ** 2
    )


@pytest.mark.parametrize(
    "name,n_sub", [("frac2", 4), ("square6", 4), ("cube2", 4), ("square12", 9)]
)
def test_interior_matrices_reach_the_factorization_as_canonical_csc(
    fixtures, monkeypatch, name, n_sub
):
    """build_substructures hands one block-diagonal K_II per interface size
    to the module-level factor_symmetric_indefinite, the binding a
    benchmark trace wraps, as a :class:`BlockDiagonal` of a canonical CSC
    matrix; its diagonal blocks, as its ``start`` bounds them, are the
    members' interior blocks of the dense elimination, every substructure
    in exactly one of them, and nothing lies outside them."""
    mesh = fixtures[name] if name in fixtures else heterogeneous_square(12)
    seen = record_interior_matrices(monkeypatch)
    system, layout, subs, _ = setup_case(mesh, n_sub)
    groups = interface_size_groups(substructure_views(subs))
    assert len(seen) == len(groups)
    assert sorted(s for grp in groups for s in grp) == list(range(n_sub))
    ref = hybridized_substructure_blocks(system, layout)
    for given, members in zip(seen, groups):
        assert isinstance(given, BlockDiagonal)
        k_ii = given.matrix
        assert k_ii.format == "csc"
        assert k_ii.has_canonical_format
        assert (k_ii != k_ii.T).nnz == 0
        sizes = [len(ref[s]["interior_mults"]) for s in members]
        assert k_ii.shape == (sum(sizes),) * 2
        assert given.start.tolist() == np.cumsum([0] + sizes).tolist()
        dense = k_ii.toarray()
        outside = np.ones(dense.shape, dtype=bool)
        for s, a, b in zip(members, np.cumsum([0] + sizes), np.cumsum(sizes)):
            want = ref[s]["k_ii"]
            scale = max(1.0, np.abs(want).max(initial=0.0))
            gap = np.abs(dense[a:b, a:b] - want).max(initial=0.0)
            assert gap <= 1e-12 * scale, s
            outside[a:b, a:b] = False
        assert not dense[outside].any()


def test_grouped_build_matches_oracle_and_separate_factorizations(monkeypatch):
    """On a partition with repeated and unique interface sizes, every
    member's W, K_II^-1 rhs_I, S_i and share of the reduced right-hand side
    match the dense elimination, and its band factor, ordering, interior
    load solution and ``K_GI (-K_II)^-1 K_IG`` equal, bit for bit, those of
    the member's own K_II factored alone."""
    seen = record_interior_matrices(monkeypatch)
    system, layout, built, _ = setup_case(heterogeneous_square(12), 9)
    subs = substructure_views(built)
    assert sorted(sub.n_gamma for sub in subs) == [10, 10, 12, 12, 16, 17, 18, 19, 20]
    groups = interface_size_groups(subs)
    assert len(seen) == len(groups) == len(built.groups)
    for given, members, grp in zip(seen, groups, built.groups):
        n_g = grp.schurs.shape[1]
        forms = grp.interior.inverse_forms(grp.k_ig, n_g)
        for j, s in enumerate(members):
            a, b = given.start[j], given.start[j + 1]
            alone = factor_symmetric_indefinite(
                BlockDiagonal(given.matrix[a:b, a:b], np.array([0, b - a]))
            )
            assert np.array_equal(grp.interior._bands[j], alone._bands[0])
            assert np.array_equal(grp.interior._order[a:b] - a, alone._order)
            sub = subs[s]
            assert np.array_equal(sub.lam_load, alone.solve(sub.load))
            k_ig = sps.csr_matrix(sub.k_ig)
            assert np.array_equal(forms[j], alone.inverse_forms(k_ig, n_g)[0])
    for sub, want in zip(subs, hybridized_substructure_blocks(system, layout)):
        assert np.array_equal(sub.interior_mults, want["interior_mults"])
        want["w"] = -sla.solve(want["k_ii"], want["k_ig"])
        want["lam_load"] = sla.solve(want["k_ii"], want["rhs_interior"])
        want["rhs_share"] = want["k_ig"].T @ want["lam_load"] - want["rhs_gamma"]
        for name in ("w", "lam_load", "rhs_share", "schur"):
            assert _relative_gap(getattr(sub, name), want[name]) <= 1e-12, name


def test_singular_member_of_a_group_is_named(monkeypatch):
    """When a member of a group is not certified, the error names that
    member, not the group."""
    from darcydd.ldlt import factor_symmetric_indefinite as real

    import darcydd.subsolve

    mesh = heterogeneous_square(12)
    seen = record_interior_matrices(monkeypatch)
    system, layout, built, _ = setup_case(mesh, 9)
    subs = substructure_views(built)
    groups = interface_size_groups(subs)
    pair = next(grp for grp in groups if len(grp) == 2)
    # the second member, so that a healthy member is factored first
    target = pair[1]
    given = seen[groups.index(pair)]
    a, b = given.start[1], given.start[2]
    block = given.matrix.toarray()[a:b, a:b]

    def singular_target(matrix):
        """Zero the rows and columns of the target's block wherever it is
        a diagonal block, which leaves the matrix symmetric."""
        dense = matrix.matrix.toarray()
        for o, e in zip(matrix.start, matrix.start[1:]):
            if np.array_equal(dense[o:e, o:e], block):
                dense[o:e] = 0.0
                dense[:, o:e] = 0.0
                return real(BlockDiagonal(sps.csc_matrix(dense), matrix.start))
        return real(matrix)

    monkeypatch.setattr(darcydd.subsolve, "factor_symmetric_indefinite", singular_target)
    with pytest.raises(
        SingularSystemError,
        match=rf"^interior problem of substructure {target} is singular",
    ):
        build_substructures(system, layout)


def test_operator_matches_summed_local_schur(square6):
    system, layout, subs, op = setup_case(square6, 4)
    dense = dense_operator(op.apply, layout.n_interface)
    total = np.zeros_like(dense)
    for sub, blk in zip(
        substructure_views(subs), hybridized_substructure_blocks(system, layout)
    ):
        s_loc = blk["schur"]
        total[np.ix_(sub.local_gamma, sub.local_gamma)] += s_loc
    assert np.abs(dense - total).max() <= 1e-12 * max(1.0, np.abs(dense).max())


def test_parallel_map_preserves_order():
    assert parallel_map(lambda x: 2 * x, range(6), threads=2) == [0, 2, 4, 6, 8, 10]


def test_corrupted_band_factor_fails_the_probe(frac2, monkeypatch):
    """A band factor scaled by 1 + 1e-6 after its certificate makes the
    probe solve's backward error about 2e-6, and set-up refuses it, naming
    the member, before it forms that group's S_i."""
    import darcydd.subsolve

    real = darcydd.subsolve.factor_symmetric_indefinite
    system, layout, subs, _ = setup_case(frac2, 4)
    target = int(subs.groups[0].members[0])

    def corrupted(matrix):
        fact = real(matrix)
        fact._bands[0] *= 1.0 + 1e-6

        def refused(*args):
            pytest.fail("S_i formed with a factor that failed its probe")

        fact.inverse_forms = refused
        return fact

    monkeypatch.setattr(darcydd.subsolve, "factor_symmetric_indefinite", corrupted)
    with pytest.raises(
        SingularSystemError,
        match=rf"^substructure {target}: .*interior solve is unreliable",
    ):
        build_substructures(system, layout)


@pytest.mark.parametrize(
    "params,bound",
    [({"k1": 1e8, "k2": 1.0, "k3": 1e-8}, 1e-7), ({"sigma": 1e9}, 2e-9)],
    ids=["k-1e8", "sigma-1e9"],
)
def test_schur_complements_match_40_digit_reference(params, bound, monkeypatch):
    """Every S_i of the fractured cube with 8 substructures, at conductivity
    contrast k = 1e8 and at penalty sigma = 1e9, lies within ``bound``
    (relative to its largest entry) of the Schur complement of the same
    multiplier blocks in 40-digit arithmetic. The band path measured 3.3e-8
    and 7.4e-10 at worst, the members whose blocks the extreme coefficient
    enters, and about 1e-16 elsewhere; the bounds leave a factor of about
    three. Only the K_GI K_II^-1 K_IG part is compared, as K_GG enters
    S_i by one exact negation and one addition."""
    seen = record_interior_matrices(monkeypatch)
    mesh = generate_cross_fracture_cube(4, **params)
    _, _, subs, _ = setup_case(mesh, 8)
    worst = 0.0
    for given, grp in zip(seen, subs.groups, strict=True):
        n_g = grp.schurs.shape[1]
        forms = grp.interior.inverse_forms(grp.k_ig, n_g)
        for j, (a, b) in enumerate(zip(grp.start, grp.start[1:])):
            k_ii = given.matrix[a:b, a:b].toarray()
            k_ig = grp.k_ig[a:b, j * n_g : (j + 1) * n_g].toarray()
            ref = mp_inverse_form(-k_ii, k_ig, digits=40)
            gap = np.abs(forms[j] - ref).max() / np.abs(grp.schurs[j]).max()
            worst = max(worst, gap)
    assert worst <= bound


def test_element_inverse_formed_once_per_solve(frac2, monkeypatch):
    """Set-up and recovery share one element inverse, and recovering with
    it gives the same solution, bit for bit, as with a fresh one."""
    import darcydd.assembly

    real = darcydd.assembly._element_inverse
    calls = []

    def counting(system):
        calls.append(system)
        return real(system)

    monkeypatch.setattr(darcydd.assembly, "_element_inverse", counting)
    pipe = build_pipeline(frac2, 4)
    lam, report = pcg(
        pipe.op.apply, pipe.prec.apply, pipe.op.reduced_rhs(),
        PcgConfig(rel_tol=1e-10),
    )
    assert report.converged
    sol = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
    assert len(calls) == 1
    pipe.system._m_inv = None  # recovery forms its own inverse again
    fresh = recover_solution(pipe.system, pipe.subs, pipe.layout, lam)
    assert len(calls) == 2
    assert np.array_equal(sol.concatenated(), fresh.concatenated())


@pytest.mark.parametrize(
    "name,n_sub",
    [("frac2", 4), ("square6", 4), ("cube2", 4), ("square16", 16), ("frac4", 8)],
)
def test_grouped_operator_equals_substructure_loop(name, n_sub, fixtures, rng):
    """The operator applies each interface-size group's stack of ``S_i``
    in one batched product, and the reduced right-hand side sums the shares
    with one ``np.bincount``; both equal the loop over the substructures in
    order bit for bit, with one-member groups (frac2), one group (square6,
    cube2), several groups of several members (square16) and groups whose
    members differ in constraint count (frac4)."""
    if name == "square16":
        mesh = generate_unit_square(16)
    elif name == "frac4":
        mesh = generate_cross_fracture_cube(4)
    else:
        mesh = fixtures[name]
    pipe = build_pipeline(mesh, n_sub, with_prec=False)
    op = pipe.op
    views = substructure_views(pipe.subs)
    assert len(op.stacks) == len({sub.n_gamma for sub in views})
    # the stacks are the storage of every S_i
    for stack in op.stacks:
        assert all(
            np.shares_memory(sub.schur, stack)
            for sub in views
            if sub.n_gamma == stack.shape[1]
        )
    for _ in range(3):
        x = rng.standard_normal(op.n)
        assert np.array_equal(op.apply(x), interface_apply_loop(pipe.subs, op.n, x))
    assert np.array_equal(op.reduced_rhs(), reduced_rhs_loop(pipe.subs, op.n))
