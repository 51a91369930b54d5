"""Reference implementations that only the tests call.

Each one is an independent second way to compute something the library
computes, or a dense stand-in for a demo the library evaluates in closed
form, so a test can compare the two.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from fockbench import _linalg, opalg
from fockbench.boundedness import level_constants
from fockbench.deformations import KERNEL_TOL, DeformationFamily, creator_stacks, transition, validate
from fockbench.interacting import InteractingSpace, squeezing_of
from fockbench.tensor_core import TruncatedFockSpace, flat_index, inversions, kron_id, position_map, words


def permutation_operator(sigma, space: TruncatedFockSpace):
    """Matrix of the factor substitution at level n = len(sigma), plus inv(sigma).

    Sends e_{i1} x ... x e_{in} (labels n..1 left to right) to the simple
    tensor whose label-j factor is the old label-sigma(j) factor.  Returns
    the d**n x d**n complex matrix and the inversion count of sigma.
    """
    positions = position_map(sigma)  # refuses a non-permutation
    n = len(positions)
    if n > space.N:
        raise ValueError(f"level {n} exceeds cutoff {space.N}")
    dim = space.dim(n)
    P = np.zeros((dim, dim), dtype=complex)
    P[flat_index(words(n, space.d)[:, positions], space.d), np.arange(dim)] = 1.0
    return P, inversions(sigma)


@dataclass(frozen=True)
class KernelFactorization:
    """Matrices K_n with L_n = K_n (id (x) L_{n-1}), minimal Frobenius norm."""

    family: DeformationFamily
    K: tuple  # K[i] is the level-(i+1) factor
    residuals: tuple

    def level(self, n: int) -> np.ndarray:
        if not 1 <= n <= len(self.K):
            raise ValueError(f"K defined for levels 1..{len(self.K)}")
        return self.K[n - 1]

    def reconstruct(self) -> list:
        """Iterate L_{n+1} = K_{n+1}(id (x) L_n) from L_0 = [1]."""
        d = self.family.space.d
        mats = [np.ones((1, 1), dtype=complex)]
        for Kn in self.K:
            mats.append(kron_id(mats[-1], Kn, d))
        return mats


def factor_K(
    family: DeformationFamily,
    rank_tol: float = _linalg.RANK_TOL,
    residual_tol: float = 1e-9,
) -> KernelFactorization:
    """Factor L_{n+1} = K_{n+1}(id (x) L_n) via the pseudoinverse.

    The minimal-Frobenius-norm solution K_{n+1} = L_{n+1} (id (x) pinv(L_n))
    reconstructs L_{n+1} exactly (up to residual_tol, relative) precisely
    when the kernel condition holds; a larger residual is reported as an
    error since it certifies kernel-condition failure.  pinv(L_n) comes from
    the cached spectrum, inverting the eigenvalues with
    w > rank_tol * max w, the ones ``build`` keeps.  This is a second kernel
    rule, independent of ``deformations.validate``.
    """
    d = family.space.d
    Ks, residuals = [], []
    L_prev = family.level(0)
    for n in range(family.space.N):
        mu, xi = kept(family, n, rank_tol)
        L_next = family.level(n + 1)
        Kn = kron_id((xi / mu) @ xi.conj().T, L_next, d)
        resid = _linalg.fro_norm(L_next - kron_id(L_prev, Kn, d))
        if L_next.any():
            resid /= _linalg.fro_norm(L_next)
        residuals.append(resid)
        if resid > residual_tol:
            raise ValueError(
                f"factorization residual {resid:.3e} at level {n + 1}: "
                "kernel condition fails"
            )
        Ks.append(Kn)
        L_prev = L_next
    return KernelFactorization(family, tuple(Ks), tuple(residuals))


def reference_build(family: DeformationFamily, rank_tol: float = _linalg.RANK_TOL,
                    residual_tol: float = KERNEL_TOL) -> tuple:
    """``interacting.build`` with a spanning SVD on every transition: the
    creator stacks of each transition by row part (``creator_stacks``), whose
    singular values, cut against the largest of all, must keep ranks[n+1] of
    them, and whose largest is ||kappa_{n+1}||.  Returns (ranks, blocks,
    kappa_norms), or raises build's ValueError with build's message."""
    report = validate(family, rank_tol=rank_tol, kernel_tol=residual_tol)
    if not report.kernel_ok:
        n = next(n for n, v in enumerate(report.kernel_violations) if v > residual_tol)
        raise ValueError(
            "family fails validation: kernel condition violated at level "
            f"{n} (residual {report.kernel_violations[n]:.3e})"
        )
    if not report.psd_ok:
        raise ValueError(f"family fails validation: {report.to_dict()}")
    fock = family.space
    parts = [family.parts(n).cut(rank_tol) for n in fock.levels()]
    blocks, kappa_norms = [], []
    for n in range(fock.N):
        lower, upper, table = transition(parts[n], parts[n + 1], n, fock.d)
        stacks = creator_stacks(lower, zip(upper.w, upper.V, table))
        s = _linalg.singular_values(stacks)
        if np.count_nonzero(_linalg.kept_mask(s, rank_tol)) != parts[n + 1].rank:
            raise ValueError(f"creators fail to span level {n + 1}")
        blocks.append(tuple(stacks))
        kappa_norms.append(float(s.max(initial=0.0)))
    return tuple(p.rank for p in parts), tuple(blocks), tuple(kappa_norms)


def bits(blocks) -> list:
    """(shape, dtype, bytes) of each stack of each transition: equal for two
    spaces exactly when their creator blocks are equal bit for bit."""
    return [[(a.shape, a.dtype, a.tobytes()) for a in stacks] for stacks in blocks]


def spectrum(family: DeformationFamily, n: int) -> tuple:
    """Eigenvalues w and d**n x len(w) eigenvectors V of level n as one dense
    part, in the family's sector-major order (``Parts.merged``)."""
    merged = family.parts(n).merged(family.space.dim(n))
    return merged.w[0], merged.V[0]


def kept(family: DeformationFamily, n: int, rank_tol: float = _linalg.RANK_TOL) -> tuple:
    """The kept eigenvalues mu_n (w > rank_tol * max w) and their eigenvectors
    xi_n, dense and sector-major (``Parts.cut``, then ``merged``)."""
    merged = family.parts(n).cut(rank_tol).merged(family.space.dim(n))
    return merged.w[0], merged.V[0]


def grid_family(m: int) -> DeformationFamily:
    """Dense realization of the grid demo (small m only): L_1 = diag(midpoints), L_2 = id."""
    mid = (np.arange(m) + 0.5) / m
    return DeformationFamily(
        TruncatedFockSpace(d=m, N=2),
        (np.eye(1, dtype=complex), np.diag(mid).astype(complex), np.eye(m * m, dtype=complex)),
    )


def block_compression(x, dims) -> np.ndarray:
    """(x (x) id)* L_2 (x (x) id) for the block demo, assembled blockwise."""
    parts = np.split(np.asarray(x, dtype=complex).reshape(-1), np.cumsum(list(dims))[:-1])
    return block_diag(*(np.outer(p.conj(), p) for p in parts))


def creator_vs_squeezing_gap(space: InteractingSpace, probes) -> float:
    """max over probes of (sup-level ||a*(x)|| - ||kappa|| ||x||), clipped at 0.

    Nonpositive up to numerical noise: the creator norm is dominated by the
    squeezing norm.
    """
    kappa_norm = max(space.kappa_norms)
    gap = 0.0
    for x in probes:
        x = np.asarray(x, dtype=complex).reshape(-1)
        rep = level_constants(space, x, with_creator_map=False)
        worst = max(rep.creator_norms) if rep.creator_norms else 0.0
        gap = max(gap, worst - kappa_norm * np.linalg.norm(x))
    return max(gap, 0.0)


def quotient_maps(space: InteractingSpace) -> tuple:
    """The quotient maps Lambda_n = diag(sqrt(mu_n)) xi_n* (ranks[n] x d**n) of a built space."""
    return tuple(s[:, None] * xi.conj().T for xi, s in zip(space.xi, space.sqrt_mu))


def pi_deviations(family, space: InteractingSpace) -> list:
    """(||lambda_n - pi_n||_F, ||kappa_n - pi_n||_F) for n = 1..N on dense
    matrices: lambda_n the space's root, kappa_n = xi_n C_n (id (x)
    xi_{n-1})* of its squeezing with the Kronecker product formed, and pi_n
    the level of the projection family."""
    eye = np.eye(space.space.d)
    out = []
    for n, (xi, C, xi_prev) in enumerate(squeezing_of(space).triples, start=1):
        kappa = xi @ C @ np.kron(eye, xi_prev).conj().T
        pi = family.level(n)
        out.append((np.linalg.norm(space.lam[n] - pi), np.linalg.norm(kappa - pi)))
    return out


def moment_pairing(p, q, moments) -> float:
    """<p, q> under the moment functional: sum_ij p_i q_j m_{i+j}."""
    return sum(float(a * b * moments[i + j]) for i, a in enumerate(p) for j, b in enumerate(q) if a and b)


def one_matrix_space(family: DeformationFamily, rank_tol: float = _linalg.RANK_TOL) -> dict:
    """The quotient data of a family read as whole d**n x d**n matrices, level
    by level, with no sectors: each level's spectrum is one ``eigh`` of the
    Hermitian part of L_n (a thin SVD of a factor), xi_n its kept suffix, the
    creators the d column blocks of Lambda_{n+1}(id (x) xi_n diag(mu_n^-1/2)),
    the kernel residuals and ``verify_space``'s gram and isometry taken on
    whole matrices.  A level that certifies no sectors is the one-part
    instance of the block path, which must give these arrays bit for bit."""
    d, dims = family.space.d, family.space.dims
    spectra = []
    for n in family.space.levels():
        if family.factors is None:
            L = family.level(n)
            spectra.append(np.linalg.eigh((L + L.conj().T) / 2.0))
        elif family.factors[n].shape[0]:
            _, s, Vh = np.linalg.svd(family.factors[n], full_matrices=False)
            spectra.append((s[::-1] ** 2, Vh[::-1].conj().T))
        else:
            spectra.append((np.zeros(0), np.zeros((dims[n], 0), dtype=family.dtype)))
    kept = []
    for w, V in spectra:
        start = len(w) - int(np.count_nonzero(_linalg.kept_mask(w, rank_tol)))
        kept.append((w[start:], V[:, start:]))
    residuals, creators = [], []
    for n in range(family.space.N):
        (_, xi), (mu, xi_next) = kept[n], kept[n + 1]
        Lambda = np.sqrt(mu)[:, None] * xi_next.conj().T
        viol = 0.0
        if xi.shape[1] < dims[n] and len(mu):
            on_kept = kron_id(xi, Lambda, d)
            off = Lambda - kron_id(xi.conj().T, on_kept, d)
            blocks = np.linalg.norm(off.reshape(len(mu), d, dims[n]), axis=(0, 2))
            viol = float(blocks.max()) / max(1.0, _linalg.fro_norm(Lambda))
        residuals.append(viol)
        stack = kron_id(xi / np.sqrt(kept[n][0]), Lambda, d)
        creators.append(tuple(np.split(stack, d, axis=1)))
    gram = isometry = 0.0
    for n, ((mu, xi), (w, _)) in enumerate(zip(kept, spectra)):
        if family.factors is None:
            L = family.level(n)
            Lambda = np.sqrt(mu)[:, None] * xi.conj().T
            gram = max(gram, _linalg.fro_norm(Lambda.conj().T @ Lambda - L) / max(1.0, _linalg.fro_norm(L)))
        else:
            gram = max(gram, _linalg.fro_norm(w[: len(w) - len(mu)]) / max(1.0, _linalg.fro_norm(w)))
        isometry = max(isometry, _linalg.fro_norm(xi.conj().T @ xi - np.eye(len(mu))))
    return {"xi": [xi for _, xi in kept], "sqrt_mu": [np.sqrt(mu) for mu, _ in kept], "creators": creators,
            "residuals": residuals, "gram": gram, "isometry": isometry}


def dense_basis(span):
    """A span's basis as the dense (rank, R, R) stack, R the sum of its ranks."""
    at = np.cumsum((0, *span.ranks))
    out = np.zeros((span.rank, at[-1], at[-1]), dtype=span.coords.dtype)
    for n, rows, cols, sl in opalg._blocks(span.ranks, span.degree):
        t = n + span.degree
        out[:, at[t]:at[t + 1], at[n]:at[n + 1]] = span.coords[:, sl].reshape(span.rank, rows, cols)
    return out


def on_vacuum(word, space: InteractingSpace):
    """(level, vector) of a word of (+1, x) creators and (-1, x) annihilators,
    written as the operator product (rightmost letter first), applied to the
    vacuum by ``space.creator_x``; an annihilator on the vacuum gives (0, zero)."""
    level, vec = 0, np.ones(1)
    for sign, x in reversed(word):
        if sign < 0 and level == 0:
            return 0, np.zeros(1)
        a = space.creator_x(level if sign > 0 else level - 1, x)
        level, vec = (level + 1, a @ vec) if sign > 0 else (level - 1, a.conj().T @ vec)
    return level, vec


def vacuum_value(word, space: InteractingSpace) -> complex:
    """<Omega, w Omega> of a word as ``on_vacuum`` takes it."""
    level, vec = on_vacuum(word, space)
    return complex(vec[0]) if level == 0 else 0j


def reference_suffix_rows(cands):
    """A suffix span's rows from its candidates (k, w), as span_build took them
    before its fill test: the ``vt`` rows of a thin SVD above SPAN_TOL sigma_0."""
    _, svals, vt = np.linalg.svd(cands, full_matrices=False)
    return vt[svals > opalg.SPAN_TOL * svals[0]]


def reference_extend_onb(onb, block):
    """``opalg._extend_onb`` as it stood before it took an empty basis's block
    as it is and skipped the QR above its bound: block CGS2, the SPAN_TOL norm
    test, an SVD cut at SPAN_TOL, and the kept rows projected once more and
    re-orthonormalized by QR.  Frozen here as the reference."""
    for _ in range(2):
        block = block - (block @ onb.conj().T) @ onb
    if np.linalg.norm(block) <= opalg.SPAN_TOL:
        return onb
    _, svals, vt = np.linalg.svd(block, full_matrices=False)
    new = vt[svals > opalg.SPAN_TOL]
    if not new.shape[0]:
        return onb
    new = new - (new @ onb.conj().T) @ onb
    new = np.linalg.qr(new.conj().T)[0].conj().T
    return np.concatenate([onb, new])


def _signature_spans(space, kinds, horizon, frozen):
    """The spans of ``kinds`` from every admissible signature, on a word table
    of their own: with ``frozen``, each signature's suffix span extended by the
    reference steps above; else by span_build's own (``opalg._fill`` first,
    then ``opalg._extend_onb``), looked up at each call."""
    ranks, dtype, d = tuple(space.ranks), space.dtype, space.space.d
    W = 2 * space.space.N + 2 if horizon is None else horizon
    ups = np.concatenate([space.stack(n).reshape(ranks[n + 1], d, ranks[n]).transpose(1, 0, 2).reshape(d, -1)
                          for n in range(len(ranks) - 1)], axis=1)
    identity = np.concatenate([np.eye(r, dtype=dtype).reshape(-1) for r in ranks])[None]
    words = {1: ups, -1: opalg._adjoint(ups, ranks, 1), (): identity}

    def candidates(sig, reach):
        tail = suffix_span(sig[1:])
        if not len(tail) or reach.stop == reach.start:
            return np.zeros((0, reach.stop - reach.start), dtype=dtype)
        cands = opalg._times(words[sig[0]], sig[0], tail, sum(sig[1:]), ranks)[..., reach]
        return cands.reshape(-1, reach.stop - reach.start)

    def suffix_span(sig, cands=None):
        if sig not in words:
            reach = opalg._reach(ranks, sig)
            cands = candidates(sig, reach) if cands is None else cands
            kept = reference_suffix_rows(cands) if len(cands) else cands
            words[sig] = np.zeros((len(kept), opalg._support_size(ranks, sum(sig))), dtype=kept.dtype)
            words[sig][:, reach] = kept
        return words[sig]

    spans = {}
    for which in kinds:
        degree = 1 if which.startswith("mod") else 0
        ambient = opalg._support_size(ranks, degree)
        if which.endswith("_all"):
            spans[which] = opalg.OperatorSpan(coords=np.eye(ambient, dtype=dtype), ranks=ranks, degree=degree,
                                              which=which, horizon=W, stabilized=True, rank_history=(ambient,))
            continue
        onb = comp = np.zeros((0, ambient), dtype=dtype)
        history = []
        for n in range(1, W + 1):
            for sig in opalg._admissible_signatures(which, n):
                if len(onb) == ambient:
                    continue
                reach = opalg._reach(ranks, sig)
                cands = words[sig][:, reach] if sig in words else candidates(sig, reach)
                if frozen:
                    onb = reference_extend_onb(onb, suffix_span(sig, cands))
                    continue
                comp, fills = opalg._fill(onb, cands, reach, comp)
                onb = np.concatenate([onb, comp]) if fills else opalg._extend_onb(onb, suffix_span(sig, cands))
            history.append(len(onb))
            if len(onb) == ambient and n < W:
                history.extend([ambient] * (W - n))
                break
        spans[which] = opalg.OperatorSpan(coords=onb, ranks=ranks, degree=degree, which=which, horizon=W,
                                          stabilized=len(history) >= 2 and history[-1] == history[-2],
                                          rank_history=history)
    return spans


def every_signature_spans(space, kinds, horizon=None) -> dict:
    """The word spans of ``kinds`` (not ``mod_all``/``alg_all``) as ``span_build``
    would take them if it did not skip covered signatures: every admissible
    signature is put to the fill test and, where that does not certify, its
    suffix span is computed and extended into the basis, also where earlier
    suffix spans of the kind already filled the signature's reach.  The kinds
    share one word table of their own, and every step is ``span_build``'s, so
    the spans must agree bit for bit."""
    return _signature_spans(space, kinds, horizon, frozen=False)


def reference_spans(space, kinds, horizon=None) -> dict:
    """The spans of ``kinds`` as ``span_build`` took them before its fill test:
    every admissible signature's suffix span (``reference_suffix_rows``)
    extended by ``reference_extend_onb``.  The steps are frozen here, so this
    stays the reference whatever ``opalg`` changes; spans agree with it in
    rank, history and projector, not bit for bit."""
    return _signature_spans(space, kinds, horizon, frozen=True)
