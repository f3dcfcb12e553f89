"""Byte-for-byte pins of the CLI on inputs where a check fails.

Each document is a builtin with some matrices of some faces negated
(``helpers.SIGN_MUTANTS``); every one still validates, but fails at least
one check suite:

* ``ngon:5`` and ``ngon_x_p1:3``, every pairing of face ``{1}`` negated:
  the pairings stay perfect and graded-symmetric, but the primitive forms of
  the first page are no longer definite, so ``check --all`` and
  ``check --ito`` exit 1 with ``hl_positivity`` failures.  ``--hl``,
  ``--wm``, ``--h1``, ``validate``, ``e2`` and ``report`` exit 0.
* ``ngon:4/lefschetz-sign``, the Lefschetz maps of faces ``{1}`` and
  ``{2}`` negated: ``L: E2^{0,0} -> E2^{0,2}`` is zero, so ``check --hl``
  fails ``log_hard_lefschetz[b=0,q=0,r=1]``, ``check --h1`` fails
  ``h0_pairing_on_ker_rho[k=1]``, ``check --ito`` fails ``hl_positivity``
  at ``V`` and ``H(V)`` and ``hl_iso_L`` at ``H(V)``, and ``report`` exits
  1.  ``check --wm`` exits 0.
* ``ngon:4/point-sign``, the pairings of the double points ``{1,2}`` and
  ``{1,4}`` negated: ``check --wm`` fails ``weight_monodromy[r=1,w=1]``,
  ``check --h1`` fails five checks, among them ``h0_pairing_on_im_rho[k=2]``
  (its null vector is written in the basis of im rho(1, 0)),
  ``ker_tau_meets_im_rho_trivially`` and ``wm_h1_iso`` (a kernel vector),
  and ``check --ito`` fails ``hl_positivity`` and ``hl_iso_N``.  ``check
  --hl`` and ``report`` exit 0.

So every suite flag has at least one pinned failure, with its locations and
witness vectors.  The table holds the SHA-256 of stdout and the exit code,
in text and JSON, like ``test_golden_outputs``.

``validate`` checks five level relations, one ordered table of maps that
must vanish.  Each ``helpers.RELATION_MUTANTS`` document passes the
structural checks and fails some of them, and ``RELATION_GOLDEN`` pins its
``validate`` output, exit 1:

* ``tetrahedron/restriction-double``, the restriction ``{1,2} -> {1,2,3}``
  doubled: ``rho-squared`` (level 1, degree 0), ``anticommutation`` (level
  2, degree 0) and ``tau-squared`` (level 3, degree 0);
* ``tetrahedron/point-sign``, the pairing of the point ``{1,2,3}`` negated:
  ``anticommutation`` alone;
* ``two-p3/h2-only``, two ``P^3`` meeting in a stratum with ``H^2`` alone:
  ``lefschetz-rho`` (level 1, degree 0) and ``lefschetz-tau`` (level 2,
  degree 2).  No restriction is checked in a degree where its target has
  no cohomology, so only the level relation sees the missing ``H^0``.

``check`` and ``e2`` on each of them print its ``validate`` output, and
``report`` fails it as ``input_valid``; no suite runs.  ``report``'s text
is its title, ``overall: fail`` and the ``validate`` text of the report's
own validation (``RELATION_REPORT_TEXT``).
With every map read as nonzero, ``validate`` reports every row of the table
at every level and degree, in table order
(``test_every_relation_row_is_reported_in_table_order``).

``hl_cohomology_fixpoint`` has no pinned failure, because it cannot fail on
a page that builds.  It compares ``hl_cohomology(e2)``, the second page of
``e2``, with ``e2``.  The differential of ``e2`` is zero, so every cell of
``hl_cohomology(e2)`` is a whole quotient: no boundaries, every vector a
cycle, and the identity as its basis.  Between whole quotients
``induced_map`` returns the operator and ``induced_pairing`` the pairing,
and a zero operator or pairing comes back as the shared zero of its shape,
which equals it.  So ``_same_complex`` compares each ``N``, ``L``, ``d``
and pairing of ``e2`` with itself, or with an equal zero.
``test_cohomology_of_a_page_is_the_page`` checks that premise on every
builtin.

``hl_parity`` and ``hl_d_squared`` cannot fail in ``check`` either, and the
tests below check each premise on the builtins and the sign mutants:

* ``hl_parity`` fails on a cell ``(a, b)`` with odd ``b``.  ``hl_suite``
  runs only on a cycle-generated document, and a slope-pure stratum with
  odd cohomology does not validate (``slope-pure-odd``).  So every stratum
  has even degrees, every first-page cell ``(a, b)`` has ``b`` a degree
  plus an even twist, and every second-page cell is a subquotient of a
  first-page cell.
* ``hl_d_squared`` fails where ``d1 o d1`` is not zero.  At ``V``, the
  first page, ``check`` builds ``E2Page(e1)`` before any suite runs, and
  it raises ``DifferentialNotSquareZero`` into the first cell where
  ``d1 o d1`` is not zero, so the command exits 2 before ``hl_suite``.  At
  ``H(V)``, the second page, ``d1`` is zero.

``log_hl_corner_dims`` cannot fail on a validated document.  At ``r`` and
``b`` it compares ``dim E2^{a,b}``, where ``a = n-r-b``, with the dimension
of the dual corner ``(b+r-n, 2n-b)``, which is ``(-a, 2n-b)``.  Validation
makes every stratum's pairing perfect, so the first-page pairing of
``E1^{a,b}`` with ``E1^{-a,2n-b}`` is perfect: it pairs summand ``k`` with
summand ``k-a`` of the dual cell, on the same level in the complementary
degree.  ``tau`` is formed as the exact adjoint of ``rho``,
``<tau x, y> = <x, rho y>``, so ``d1 = rho + tau`` is its own adjoint under
that pairing: ``<d1 x, y> = <x, d1 y>``.  Then the image of ``d1`` pairs to
zero with the kernel of ``d1`` on the dual cell, the pairing induces a
perfect pairing of ``E2^{a,b}`` with ``E2^{-a,2n-b}``, and the two have one
dimension.  ``test_a_validated_document_has_a_self_dual_second_page``
checks both premises and the conclusion (``helpers.duality_check``) on the
builtins, the sign mutants and twelve ``random_valid_complex`` documents.

``hl_commute_Ld``, ``hl_commute_Nd`` and ``hl_commute_NL`` cannot fail on
a document that validates.  At ``H(V)``, the second page, ``d`` is zero, so
``[L, d]`` and ``[N, d]`` are zero; ``N`` and ``L`` are induced by the
first-page operators, an induced map of a product is the product of the
induced maps, and the first-page ``N`` and ``L`` commute, so the induced
ones do.  At ``V``, the first page:

* ``hl_commute_Ld``: ``L`` keeps each summand ``k`` and acts by the
  Lefschetz map of its level and degree, so ``[L, d1]`` is, block by block,
  the validator's ``lefschetz-rho`` map (from ``rho``) and ``lefschetz-tau``
  map (from ``tau``).  A document where one is not zero fails validation,
  and ``check`` exits 1 with that report before any suite runs.
* ``hl_commute_Nd`` and ``hl_commute_NL`` hold on the first page of every
  document, valid or not.  ``N`` is the identity from summand ``k`` to
  summand ``k+1``, on the same level and degree.  So both sides of
  ``[N, d1]`` apply one ``rho`` or ``tau`` block, and both sides of
  ``[N, L]`` one Lefschetz block, between the same two summands, and a
  summand truncated away drops both sides.

The tests below check on the builtins, the sign mutants and the relation
mutants that ``[L, d1]`` is zero exactly where no Lefschetz row of the
validator fails, that ``[N, d1]`` and ``[N, L]`` are zero on every first
page, and that the induced ``N`` and ``L`` of every second page compose as
the first-page products do.

``hl_adjoint_N``, ``hl_adjoint_L`` and ``hl_adjoint_d`` cannot fail on a
document that validates.  Each compares ``<Tx, y>`` with ``<x, Ty>``, as
Gram matrices, for ``T`` out of one cell.  At ``V``, the first page:

* ``hl_adjoint_d``: ``tau`` is the exact adjoint of ``rho``, so ``d1`` is
  its own adjoint (see ``log_hl_corner_dims``);
  ``test_a_validated_document_has_a_self_dual_second_page`` checks
  ``d1^T P = P d1`` at every cell.
* ``hl_adjoint_L``: ``L`` and the pairing act within the strata of one
  level, so the identity is, stratum by stratum, ``<Lx, y> = <x, Ly>``,
  which the validator checks as ``lefschetz-adjoint``.  A document where it
  fails does not validate, and ``check`` exits 1 before any suite runs.
* ``hl_adjoint_N`` holds on the first page of every document, valid or
  not.  Summand ``j`` of the dual cell ``(-a-2, 2n-b+2)``, on level ``l``,
  reaches summand ``j+a+1`` of ``(a, b)`` on both sides, through identity
  blocks of ``N`` and one block of the level-``l`` pairing, and both sides
  drop it exactly when ``j+a+1 < 0``.

At ``H(V)``, the second page, ``N``, ``L``, ``d`` and the pairing are
induced on representatives, so an identity between cycles of the first
page holds on the second.  The tests below check ``N`` on every first page,
the three identities on both pages of the builtins, the sign mutants and
twelve random valid complexes, and that a stratum whose ``L`` is not
self-adjoint fails ``lefschetz-adjoint`` and the first-page identity.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from helpers import (
    RELATION_MUTANTS,
    SIGN_MUTANTS,
    complex_of,
    duality_check,
    page_relations,
    relation_mutant,
    sign_mutant,
)
from ssweight import checks, hodge_lefschetz, scenarios
from ssweight.cli import main
from ssweight.hodge_lefschetz import hl_cohomology
from ssweight.linalg import RatMatrix, induced_map
from ssweight.spectral import E1Page, E2Page
from ssweight.strata import StrataComplex

COMMANDS = (
    "validate",
    "e2",
    "check --all",
    "check --hl",
    "check --wm",
    "check --h1",
    "check --ito",
    "report",
)

# (document, command, format) -> (sha256 of stdout, exit code)
GOLDEN = {
    ("ngon:5", "validate", "text"):
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    ("ngon:5", "validate", "json"):
        ("a1e3980c06b3ba919feb7088a47a1da00aa53149fd1484758bc921ee6044d1de", 0),
    ("ngon:5", "e2", "text"):
        ("2914da63fbcb64187305a0cae264abec9b76fdcd94be303bc9891d0dad6efa57", 0),
    ("ngon:5", "e2", "json"):
        ("89534e3f37044b1c443f677597a4999f680f5ec9a7e961c32e17073503cf2bdc", 0),
    ("ngon:5", "check --all", "text"):
        ("bf21d8cb3c0908fb1978ea49e6d65f35a3302413e2faf0e0820ef748c00beebc", 1),
    ("ngon:5", "check --all", "json"):
        ("3df3268b86938dbb1be43f7a349742b83aef47818d8e9882c2028783f88086d8", 1),
    ("ngon:5", "check --hl", "text"):
        ("5c5eedcfc81b1153266606d3136bb878558a34391b727e3c24baca32073b3cb5", 0),
    ("ngon:5", "check --hl", "json"):
        ("8c4bbec20ae6c048d743da5c30af5d82be19a953f884945d271176357f856257", 0),
    ("ngon:5", "check --wm", "text"):
        ("aa3abb596b09a66f29cb776f906751812ddec85fd230cea2bca1031107e1fcd4", 0),
    ("ngon:5", "check --wm", "json"):
        ("c51d6f8c8dcf84bf92fc52186b417890f03b974fd081077ff69fc9ee88e2afee", 0),
    ("ngon:5", "check --h1", "text"):
        ("0614dc2fd7b66a67e74d7726ac47fee354267ee34a1740d0a1bad7e3544f2499", 0),
    ("ngon:5", "check --h1", "json"):
        ("825630b219401280c9197a1b6d3415b8cfea14531b965e3d5830671c5ad05c54", 0),
    ("ngon:5", "check --ito", "text"):
        ("9581c2875198fca045ab4422d6c984e0b3407e9148e84506028b8252ea41a115", 1),
    ("ngon:5", "check --ito", "json"):
        ("579ea57eb9ca2efa821684c0be26f44a5b000a9595f1a927d6159d04b62e3cbd", 1),
    ("ngon:5", "report", "text"):
        ("3d06c246347e11e5905ee9ac85f083832c1126a335b1632fdfd8a35b752d678b", 0),
    ("ngon:5", "report", "json"):
        ("cee975823641c3450ce12d11ead6e0f5f97a1464f8b2a7b115b14e74250ef980", 0),
    ("ngon_x_p1:3", "validate", "text"):
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    ("ngon_x_p1:3", "validate", "json"):
        ("19e64309d01d19485ddb1bbeb2da83a788998842d277cc154599bc9095f283ed", 0),
    ("ngon_x_p1:3", "e2", "text"):
        ("b407718eb208e9c5d72523f1334390c42ae9429db9184788620baafc8d0ca91f", 0),
    ("ngon_x_p1:3", "e2", "json"):
        ("847ad455cd4fedaa0d730c818f0cd5949459585e9c6dcb4d13adca2dc7ad1e8c", 0),
    ("ngon_x_p1:3", "check --all", "text"):
        ("9ff90ea89712399bb148f43ddf24fc6f5afd05b4036802a8b7486ac89643406a", 1),
    ("ngon_x_p1:3", "check --all", "json"):
        ("867158cca45c890b3140a58bdad439a3e05c9bc476041aec92e70b805c5b481f", 1),
    ("ngon_x_p1:3", "check --hl", "text"):
        ("b3e04a68e84295b61fd2e00d540983d18170436bebbafc07cace24ad868790a5", 0),
    ("ngon_x_p1:3", "check --hl", "json"):
        ("8b5d7991a7dc81dc4bfec778af78bc58c546dd5bfb14b60171f1d99bfe8e4dfa", 0),
    ("ngon_x_p1:3", "check --wm", "text"):
        ("997cc80b635c83b883adb8ff52447caaea9eebaa9b54aed16d0b85e129feccac", 0),
    ("ngon_x_p1:3", "check --wm", "json"):
        ("4948c8b2022f35ecefd0662287dfdf430105ea14e6203bf31dd0f424074fbcf8", 0),
    ("ngon_x_p1:3", "check --h1", "text"):
        ("0614dc2fd7b66a67e74d7726ac47fee354267ee34a1740d0a1bad7e3544f2499", 0),
    ("ngon_x_p1:3", "check --h1", "json"):
        ("236fe9d1f4739757146a27e0f932aac1c80f1e96d6509a06eac9708ec7330a10", 0),
    ("ngon_x_p1:3", "check --ito", "text"):
        ("db36bf0f935683dccc73dc8c36612ab9b36812404b0fbc27bd70308a227297e1", 1),
    ("ngon_x_p1:3", "check --ito", "json"):
        ("cec1549a88d46e6b710badfa3e78ce7df14833495ae810f383e285231dc540be", 1),
    ("ngon_x_p1:3", "report", "text"):
        ("6cedc055e69cd1c168de6546795e2aa4d87a8b3af6ae4eb301247ca61a663efa", 0),
    ("ngon_x_p1:3", "report", "json"):
        ("a9a824433ae1a1c3c5beb07cc99fa4d092d4700b8f04abb69722b24e640fa80d", 0),
    ("ngon:4/lefschetz-sign", "validate", "text"):
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    ("ngon:4/lefschetz-sign", "validate", "json"):
        ("3f6d9768ec4abc972f45ebec1ffd28c018f2057817f1ae00da0c93dfd3ffa407", 0),
    ("ngon:4/lefschetz-sign", "e2", "text"):
        ("52821f2bfdffc85fbfbd1203612ed8ea8c5d20083b0af4cd4ee9147fa9831165", 0),
    ("ngon:4/lefschetz-sign", "e2", "json"):
        ("dad65e31b029b89ea3f3a9a1bf12bb9adaaf3669325ffe6c7ccb21152fd6517f", 0),
    ("ngon:4/lefschetz-sign", "check --all", "text"):
        ("6a12eebbed19176b7f9464e6b0ab681a15ec142d301c8f316131c48ad6ae7700", 1),
    ("ngon:4/lefschetz-sign", "check --all", "json"):
        ("1099cc83a65307f6075b095a5443d5523c106a0872716f0c8d797e6ce8c4f495", 1),
    ("ngon:4/lefschetz-sign", "check --hl", "text"):
        ("b48cd81b1deea4a3d3754e0db2cbdea0e66115e2dda67177e08a1b412215386a", 1),
    ("ngon:4/lefschetz-sign", "check --hl", "json"):
        ("e66ad081bde60d2e2ad0b815771eec38197adb9330023326f89551d12393a976", 1),
    ("ngon:4/lefschetz-sign", "check --wm", "text"):
        ("aa3abb596b09a66f29cb776f906751812ddec85fd230cea2bca1031107e1fcd4", 0),
    ("ngon:4/lefschetz-sign", "check --wm", "json"):
        ("b75155cbdc1693cde0a5b0d653897395f58360f80c06a5c11d5c93f7c97534d2", 0),
    ("ngon:4/lefschetz-sign", "check --h1", "text"):
        ("968a907502b0752528e612ccec80c603a6ef490d6a4feb479d0628910ef01257", 1),
    ("ngon:4/lefschetz-sign", "check --h1", "json"):
        ("a88325d9d68a131cbdff48fa9c39871e65c7762c00613ece571778996b875070", 1),
    ("ngon:4/lefschetz-sign", "check --ito", "text"):
        ("7e5a8b302d5e6ad19119d4bc5866f90037dbaf630b7389098e28db25ed634f9f", 1),
    ("ngon:4/lefschetz-sign", "check --ito", "json"):
        ("9fee7a6bf9e8477da53d2072ab603139fad8b584c45137910c6a965cdf8f2ae8", 1),
    ("ngon:4/lefschetz-sign", "report", "text"):
        ("88124cd2bfe209e3d7b052858607ef32df1e6b8898b3ea54942804414d5b3497", 1),
    ("ngon:4/lefschetz-sign", "report", "json"):
        ("b25179f33b11612d75eaab8d7cbf582be8714c613d82d9512d0833f5b8b34077", 1),
    ("ngon:4/point-sign", "validate", "text"):
        ("b9f2bb9ab1a380a32fe2c88bb01d7771dd46bd8c31845c3c81f98bd69edbdb2f", 0),
    ("ngon:4/point-sign", "validate", "json"):
        ("3f6d9768ec4abc972f45ebec1ffd28c018f2057817f1ae00da0c93dfd3ffa407", 0),
    ("ngon:4/point-sign", "e2", "text"):
        ("52821f2bfdffc85fbfbd1203612ed8ea8c5d20083b0af4cd4ee9147fa9831165", 0),
    ("ngon:4/point-sign", "e2", "json"):
        ("dad65e31b029b89ea3f3a9a1bf12bb9adaaf3669325ffe6c7ccb21152fd6517f", 0),
    ("ngon:4/point-sign", "check --all", "text"):
        ("f2988506661140f4ccc8700cf6de171a0a7bcfd5272e77976b00c4f5e57f6dfe", 1),
    ("ngon:4/point-sign", "check --all", "json"):
        ("aa9d19ce7be9cbdf0bb542c7c39de35fbec0aa4aff474867e44dd4497dd55b9c", 1),
    ("ngon:4/point-sign", "check --hl", "text"):
        ("5c5eedcfc81b1153266606d3136bb878558a34391b727e3c24baca32073b3cb5", 0),
    ("ngon:4/point-sign", "check --hl", "json"):
        ("6e43904fb4a26e6a09a5251778f15139ee9f1f7576b3ea7631abeb4e651b8f1f", 0),
    ("ngon:4/point-sign", "check --wm", "text"):
        ("77c39551cbd1e550f6670403a8d9995cceefa9ae906d40326e699a59bf046243", 1),
    ("ngon:4/point-sign", "check --wm", "json"):
        ("040a18f414e8b33f21eaf76ecf629e8e426ecdc37a998ff871c4c2b54713b662", 1),
    ("ngon:4/point-sign", "check --h1", "text"):
        ("9cea0144fa0b7619d8c1835581d1e9aa11321da5f24233ec732fd79f1bcd1cba", 1),
    ("ngon:4/point-sign", "check --h1", "json"):
        ("707185dad7c916eb4363cccb76407a1dc49244e77236cc5c173c454e72187958", 1),
    ("ngon:4/point-sign", "check --ito", "text"):
        ("2bfc6766496fe380eaedea07a03acbe122792c77c304c80c2d827e2cb4371ea3", 1),
    ("ngon:4/point-sign", "check --ito", "json"):
        ("574bbb7ad9e787b707a86d6e2a5cc41a74ea6b6967a0c3b1d618cf82938d2846", 1),
    ("ngon:4/point-sign", "report", "text"):
        ("c0aedbcaf5eabb4202a17c6405a0d183d98d5d51a42ea371260eccec2fe251c9", 0),
    ("ngon:4/point-sign", "report", "json"):
        ("ee258fddd0c9eeae9ee10e9a22ca4032e7d29d53622985d0ce38df94acd7cf65", 0),
}

# (document, command) -> the failing results, for every failing check command
FAILURES = {
    ("ngon:4/lefschetz-sign", "check --hl"): ["log_hard_lefschetz[b=0,q=0,r=1]"],
    ("ngon:4/lefschetz-sign", "check --h1"): ["h0_pairing_on_ker_rho[k=1]"],
    ("ngon:4/lefschetz-sign", "check --ito"): [
        "hl_positivity[i=0,j=1,stage=V]",
        "hl_iso_L[i=0,j=1,stage=H(V)]",
        "hl_positivity[i=0,j=1,stage=H(V)]",
    ],
    ("ngon:4/point-sign", "check --wm"): ["weight_monodromy[r=1,w=1]"],
    ("ngon:4/point-sign", "check --h1"): [
        "h0_pairing_on_im_rho[k=2]",
        "im_tau_rho_is_orthocomplement[k=1,q=2]",
        "ker_tau_meets_im_rho_trivially[k=2,q=0]",
        "ker_rho_meets_im_tau_in_im_tau_rho[k=1,q=2]",
        "wm_h1_iso[r=1,w=1]",
    ],
    ("ngon:4/point-sign", "check --ito"): [
        "hl_positivity[i=1,j=0,stage=V]",
        "hl_iso_N[i=1,j=0,stage=H(V)]",
        "hl_positivity[i=1,j=0,stage=H(V)]",
    ],
}

# (document, format) -> (sha256 of the validate command's stdout, exit code)
RELATION_GOLDEN = {
    ("tetrahedron/restriction-double", "text"):
        ("761ec50cbacedecbc83bf50136df216ec544143e8b0109d1a8e7611a08d0d202", 1),
    ("tetrahedron/restriction-double", "json"):
        ("2bf8e8597134c58d422aee1d927f4a5d3c7d66f829d25c93e52f20d55021c186", 1),
    ("tetrahedron/point-sign", "text"):
        ("26ebaf44d0bf8a67f20eb7643fd242f020243b102472317e64389718bce03d29", 1),
    ("tetrahedron/point-sign", "json"):
        ("32503eb7a3d9f77eb6020f2a942b434cb4548e4d3b626df833f1fdedcf7882b9", 1),
    ("two-p3/h2-only", "text"):
        ("05f0dec2c2172ca79a53c3fbc13c6f9c7b9ab3adbae14cc9cfb2943199a70faa", 1),
    ("two-p3/h2-only", "json"):
        ("9628585d12ebf98e32be89b4b7ff2d8d08670f3b8f29978fbc612ce5a7d66e88", 1),
}

# document -> (sha256 of the report command's text stdout, exit code)
RELATION_REPORT_TEXT = {
    "tetrahedron/restriction-double":
        ("452d0c8de8d768c83a84eb725b07cf8e26103608eeea4e5a22d60c1e59b8bc7f", 1),
    "tetrahedron/point-sign":
        ("6a328fd59d28c8e6e1d68c4911758f374c66e737f5a7fabb7fa851d3043f0a5a", 1),
    "two-p3/h2-only":
        ("7f9ef3ae76129758a7d9d591ca7ae07442ae7607deef19fafb5456c31103acfc", 1),
}

POSITIVITY_FAILURES = {
    "ngon:5": ["hl_positivity[i=0,j=1,stage=V]"],
    "ngon_x_p1:3": ["hl_positivity[i=0,j=0,stage=V]", "hl_positivity[i=0,j=2,stage=V]"],
}


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("negated")
    paths = {}
    for name in SIGN_MUTANTS:
        path = root / (name.replace(":", "-").replace("/", "-") + ".json")
        path.write_text(json.dumps(sign_mutant(name)), encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def relation_documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("relations")
    paths = {}
    for name in RELATION_MUTANTS:
        path = root / (name.replace("/", "-") + ".json")
        path.write_text(json.dumps(relation_mutant(name)), encoding="utf-8")
        paths[name] = str(path)
    return paths


def _digest(capsys, path, command, fmt):
    code = main([*command.split(" "), "--input", path, "--format", fmt])
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode()).hexdigest(), code


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec", SIGN_MUTANTS)
def test_output_digest(capsys, documents, spec, command, fmt):
    assert _digest(capsys, documents[spec], command, fmt) == GOLDEN[spec, command, fmt]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("spec", RELATION_MUTANTS)
def test_relation_output_digest(capsys, relation_documents, spec, fmt):
    assert _digest(capsys, relation_documents[spec], "validate", fmt) == RELATION_GOLDEN[spec, fmt]


@pytest.mark.parametrize("spec", RELATION_MUTANTS)
def test_relation_failures(capsys, relation_documents, spec):
    assert main(["validate", "--input", relation_documents[spec], "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(v["code"], v["location"]) for v in payload["violations"]] == RELATION_MUTANTS[spec]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["check --all", "e2"])
@pytest.mark.parametrize("spec", RELATION_MUTANTS)
def test_a_command_on_a_relation_mutant_prints_its_validation(
    capsys, relation_documents, spec, command, fmt
):
    assert _digest(capsys, relation_documents[spec], command, fmt) == RELATION_GOLDEN[spec, fmt]


@pytest.mark.parametrize("spec", RELATION_MUTANTS)
def test_report_on_a_relation_mutant_fails_only_its_validation(capsys, relation_documents, spec):
    assert main(["report", "--input", relation_documents[spec], "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(r["name"], r["status"]) for r in payload["results"]] == [("input_valid", "fail")]
    violations = payload["data"]["validation"]["violations"]
    assert [(v["code"], v["location"]) for v in violations] == RELATION_MUTANTS[spec]


@pytest.mark.parametrize("spec", RELATION_MUTANTS)
def test_report_text_on_a_relation_mutant_prints_its_violations(
    capsys, relation_documents, spec, monkeypatch
):
    path = relation_documents[spec]
    assert _digest(capsys, path, "report", "text") == RELATION_REPORT_TEXT[spec]
    main(["validate", "--input", path])
    validate_text = capsys.readouterr().out
    # the violations are those of the report's own validation, run once
    validated, validate = [], StrataComplex.validate
    monkeypatch.setattr(StrataComplex, "validate", lambda sc: validated.append(sc) or validate(sc))
    assert main(["report", "--input", path]) == 1
    head = f"hodge symmetry report for {relation_mutant(spec)['name']}\noverall: fail\n"
    assert capsys.readouterr().out == head + validate_text
    assert len(validated) == 1


def test_every_relation_row_is_reported_in_table_order(monkeypatch):
    # every relation map read as nonzero: validate reports each row of the
    # table at each level and degree of ngon:3, anticommutation from level 2
    monkeypatch.setattr(RatMatrix, "is_zero", lambda self: False)
    report = scenarios.ngon(3).validate()
    rows = ["rho-squared", "tau-squared", "lefschetz-rho", "lefschetz-tau"]
    expected = [(code, "level 1 degree 0") for code in rows]
    expected += [(code, "level 1 degree 2") for code in rows]
    rows.insert(2, "anticommutation")
    expected += [(code, "level 2 degree 0") for code in rows]
    assert [(v.code, v.location) for v in report.violations] == expected


def _failed(capsys, path, command):
    code = main([*command.split(" "), "--input", path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return code, [
        f"{c['name']}[{','.join(f'{k}={v}' for k, v in sorted(c['location'].items()))}]"
        for c in payload["checks"]
        if c["status"] == "fail"
    ]


@pytest.mark.parametrize("spec", POSITIVITY_FAILURES)
def test_only_positivity_fails(capsys, documents, spec):
    assert _failed(capsys, documents[spec], "check --all") == (1, POSITIVITY_FAILURES[spec])


@pytest.mark.parametrize("spec", ["ngon:4/lefschetz-sign", "ngon:4/point-sign"])
@pytest.mark.parametrize("command", ["check --hl", "check --wm", "check --h1", "check --ito"])
def test_suite_failures(capsys, documents, spec, command):
    expected = FAILURES.get((spec, command), [])
    assert _failed(capsys, documents[spec], command) == (1 if expected else 0, expected)


def test_point_sign_null_vector_is_in_im_rho_coordinates(capsys, documents):
    # im rho(1, 0) has rank 3 inside H^0 of the four double points of ngon:4
    main(["check", "--h1", "--input", documents["ngon:4/point-sign"], "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    result = next(c for c in payload["checks"] if c["name"] == "h0_pairing_on_im_rho")
    assert result["witness"]["null_vector"] == ["1", "2", "1"]


def test_pins_see_the_witness_vectors(capsys, documents, monkeypatch):
    # a kernel witness scaled by 2 still certifies the failure, but it is
    # another output, so the table must not accept it; text output names
    # failures without their witnesses, so the JSON pin is the one that
    # moves.  The witness is schema strings, so it is scaled as numbers:
    # doubling the text ("1" -> "11") would move the pin for another reason
    key = ("ngon:4/point-sign", "check --h1", "json")
    path = documents["ngon:4/point-sign"]
    assert _digest(capsys, path, "check --h1", "json") == GOLDEN[key]
    witness = checks.kernel_witness
    monkeypatch.setattr(checks, "kernel_witness", lambda m: [str(2 * Fraction(x)) for x in witness(m)])
    assert _digest(capsys, path, "check --h1", "json") != GOLDEN[key]


def test_no_check_or_validation_builds_a_fraction(capsys, documents, tmp_path, monkeypatch):
    # a witness leaves the engine as schema strings of its integer column,
    # verified by one integer product, so neither ``check --all`` nor
    # ``validate`` builds a Fraction on these documents; the last document
    # fails validation with a pairing-not-perfect kernel vector
    doc = scenarios.build(scenarios.parse_spec("ngon:3")).to_json_dict()
    next(f for f in doc["faces"] if f["indices"] == [1])["pairing"] = {"0": [["0"]], "2": [["0"]]}
    invalid = tmp_path / "pairing-not-perfect.json"
    invalid.write_text(json.dumps(doc), encoding="utf-8")
    made, new = [], Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: made.append(a) or new(cls, *a, **k))
    codes, out = [], ""
    for path in [*documents.values(), str(invalid)]:
        for command in ("check --all", "validate"):
            codes.append(main([*command.split(" "), "--input", path, "--format", "json"]))
            out = capsys.readouterr().out
    assert made == []
    assert codes == [1, 0] * len(documents) + [1, 1]
    assert "kernel_vector" in out


@pytest.mark.parametrize("spec", scenarios.builtin_specs(), ids=lambda s: s.label())
def test_cohomology_of_a_page_is_the_page(spec):
    # why hl_cohomology_fixpoint cannot fail: every cell of the page's own
    # cohomology is whole, so each operator and pairing comes back as the
    # page's own matrix, the same object
    e2 = E2Page(E1Page(scenarios.build(spec)))
    h = hl_cohomology(e2)
    assert h.support() == e2.support()
    assert all(h.quotient(a, b)._is_whole for (a, b) in e2.support())
    for op in ("nmap", "lmap", "d1", "pairing_at"):
        for (a, b) in e2.support():
            assert getattr(h, op)(a, b) is getattr(e2, op)(a, b), (op, a, b)


# the documents hl_suite runs on: every cycle-generated builtin and mutant
MODULE_SOURCES = [
    *(s.label() for s in scenarios.builtin_specs() if scenarios.build(s).cycle_generated),
    *SIGN_MUTANTS,
]


def test_a_slope_pure_stratum_with_odd_cohomology_does_not_validate():
    doc = scenarios.build(scenarios.parse_spec("elliptic_stratum")).to_json_dict()
    for face in doc["faces"]:
        face["slope_pure"] = True
    report = StrataComplex.from_json_dict(doc).validate()
    assert "slope-pure-odd" in {v.code for v in report.violations}


@pytest.mark.parametrize("source", MODULE_SOURCES)
def test_every_cell_of_a_checked_module_has_even_b(source):
    # why hl_parity cannot fail: see the module docstring
    sc = complex_of(source)
    assert sc.validate().ok and sc.cycle_generated
    assert all(m % 2 == 0 for coh in sc.faces.values() for m in coh.degrees())
    e1 = E1Page(sc)
    e2 = E2Page(e1)
    assert all(b % 2 == 0 for (a, b) in e1.support())
    assert set(e2.support()) <= set(e1.support())


@pytest.mark.parametrize("source", MODULE_SOURCES)
def test_the_differentials_of_a_checked_module_square_to_zero(source):
    # why hl_d_squared cannot fail: E2Page checks d1 o d1 into every cell of
    # the first page, and the second page's d1 is zero
    e1 = E1Page(complex_of(source))
    e2 = E2Page(e1)
    assert all((e1.d1(a + 1, b) @ e1.d1(a, b)).is_zero() for (a, b) in e1.support())
    assert all(e2.d1(a, b).is_zero() for (a, b) in e2.support())


def test_a_differential_that_does_not_square_to_zero_exits_2(capsys, monkeypatch):
    # every first-page d1 of tetrahedron made all ones: E2Page raises before
    # any suite runs, so check --all exits 2 and hl_suite never runs
    d1 = E1Page.d1

    def ones(self, a, b):
        m = d1(self, a, b)
        return RatMatrix(m.rows, m.cols, [[1] * m.cols] * m.rows)

    monkeypatch.setattr(E1Page, "d1", ones)
    ran = []
    monkeypatch.setattr(hodge_lefschetz, "hl_suite", lambda e2: ran.append(e2) or [])
    assert main(["check", "--all", "--scenario", "tetrahedron"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: d1 o d1 != 0 into cell")
    assert ran == []


# every builtin, every sign mutant and twelve random valid complexes
DUALITY_SOURCES = [*(s.label() for s in scenarios.builtin_specs()), *SIGN_MUTANTS]
DUALITY_SOURCES += [f"random:{seed}" for seed in range(12)]


@pytest.mark.parametrize("source", DUALITY_SOURCES)
def test_a_validated_document_has_a_self_dual_second_page(source):
    # why log_hl_corner_dims cannot fail: see the module docstring
    sc = complex_of(source)
    assert sc.validate().ok
    n, e1 = sc.n, E1Page(sc)
    for (a, b) in e1.support():
        pairing = e1.pairing_at(a, b)
        assert pairing.rank() == e1.dim(a, b) == e1.dim(-a, 2 * n - b), (a, b)
        adjoint = e1.d1(a, b).transpose() @ e1.pairing_at(a + 1, b)
        assert adjoint == pairing @ e1.d1(-a - 1, 2 * n - b), (a, b)
    results = duality_check(E2Page(e1))
    assert results and all(r.status == "pass" for r in results)


# every builtin, every sign mutant and every relation mutant
FIRST_PAGE_SOURCES = [*(s.label() for s in scenarios.builtin_specs()), *SIGN_MUTANTS]
FIRST_PAGE_SOURCES += list(RELATION_MUTANTS)


def _first_page_failures(sc) -> set:
    return {r.name for r in page_relations(E1Page(sc)) if r.status == "fail"}


@pytest.mark.parametrize("source", FIRST_PAGE_SOURCES)
def test_L_commutes_with_d1_where_the_validator_finds_no_lefschetz_row(source):
    # why hl_commute_Ld cannot fail at V: see the module docstring
    sc = complex_of(source)
    codes = {v.code for v in sc.validate().violations}
    lefschetz_rows = codes & {"lefschetz-rho", "lefschetz-tau"}
    assert ("L_commutes_d1" in _first_page_failures(sc)) == bool(lefschetz_rows)


@pytest.mark.parametrize("source", FIRST_PAGE_SOURCES)
def test_N_commutes_with_d1_and_L_on_every_first_page(source):
    # why hl_commute_Nd and hl_commute_NL cannot fail at V, even on the
    # relation mutants, which do not validate
    assert not _first_page_failures(complex_of(source)) & {"N_commutes_d1", "N_commutes_L"}


@pytest.mark.parametrize("source", MODULE_SOURCES)
def test_the_induced_N_and_L_compose_as_the_first_page_operators(source):
    # why hl_commute_NL cannot fail at H(V): N L and L N are one map on the
    # first page, and each induces the product of the induced maps
    e1 = E1Page(complex_of(source))
    e2 = E2Page(e1)
    for (a, b) in e2.support():
        q, there = e2.quotient(a, b), e2.quotient(a + 2, b)
        nl = e1.nmap(a, b + 2) @ e1.lmap(a, b)
        assert nl == e1.lmap(a + 2, b - 2) @ e1.nmap(a, b), (a, b)
        assert induced_map(nl, q, there) == e2.nmap(a, b + 2) @ e2.lmap(a, b), (a, b)
        assert induced_map(nl, q, there) == e2.lmap(a + 2, b - 2) @ e2.nmap(a, b), (a, b)


def _adjoint_sides(v, op: str, a: int, b: int):
    """``<Tx, y>`` and ``<x, Ty>`` for ``T = op`` out of the cell ``(a, b)``
    of a page or module ``v``, as ``check_hl_axioms`` forms them."""
    da, db = {"nmap": (2, -2), "lmap": (0, 2), "d1": (1, 0)}[op]
    t = getattr(v, op)
    return (
        t(a, b).transpose() @ v.pairing_at(a + da, b + db),
        v.pairing_at(a, b) @ t(-a - da, 2 * v.n - b - db),
    )


@pytest.mark.parametrize("source", FIRST_PAGE_SOURCES)
def test_N_is_self_adjoint_on_every_first_page(source):
    # why hl_adjoint_N cannot fail at V, even on the relation mutants
    e1 = E1Page(complex_of(source))
    for (a, b) in e1.support():
        lhs, rhs = _adjoint_sides(e1, "nmap", a, b)
        assert lhs == rhs, (a, b)


@pytest.mark.parametrize("source", DUALITY_SOURCES)
def test_N_L_and_d_are_self_adjoint_on_both_pages(source):
    # why hl_adjoint_N, hl_adjoint_L and hl_adjoint_d cannot fail on a
    # validated document, at V and at H(V)
    sc = complex_of(source)
    assert sc.validate().ok
    e1 = E1Page(sc)
    for v in (e1, E2Page(e1)):
        for (a, b) in v.support():
            for op in ("nmap", "lmap", "d1"):
                lhs, rhs = _adjoint_sides(v, op, a, b)
                assert lhs == rhs, (op, a, b)


def test_a_lefschetz_map_that_is_not_self_adjoint_fails_validation():
    # why hl_adjoint_L rests on the validator: L of the plane doubled in
    # degree 0 breaks <Lx, y> = <x, Ly> between degrees 0 and 2, which
    # fails lefschetz-adjoint and nothing else, and the first-page identity
    # at the cells that hold those degrees
    doc = scenarios.build(scenarios.parse_spec("good_reduction_pn:2")).to_json_dict()
    doc["faces"][0]["lefschetz"]["0"] = [["2"]]
    sc = StrataComplex.from_json_dict(doc)
    assert {v.code for v in sc.validate().violations} == {"lefschetz-adjoint"}
    e1 = E1Page(sc)
    broken = [(a, b) for (a, b) in e1.support() if len(set(_adjoint_sides(e1, "lmap", a, b))) > 1]
    assert broken == [(0, 0), (0, 2)]
