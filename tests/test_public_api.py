import dataclasses
import inspect
import re
import sys
from pathlib import Path

import pytest

import spectral_mask
from spectral_mask import bounds, cli, model, montecarlo, oracle

# Names that left the package because no command used them; the scalar
# evaluator and the trigonometric sums live on in tests/scalar_reference.py,
# the whole-chunk mask draw in tests/mc_reference.py; the per-batch loop
# gave way to chunk units shared by every run with the same N, and batches,
# their substreams and their merge tree to one stream per seed, read as
# 8-bit lanes by ``_UnitMasks``.  Exact laws group on integer keys in
# Z[zeta_d], so the float clustering and its grouping margin are gone.  The
# generic bounded-difference bound had no caller; its one use, the
# real/imaginary tail bound, is ``tail_bound_uv``.  The scalar exact tail
# kept a second tail sum for one caller; every exact tail is now read from
# ``exact_tail_curve``, and the CLI's modulus centers are the oracle's cached
# first moment.  The CLI runs its per-point work on the calling thread, so
# it no longer imports the worker map; only Monte Carlo uses it.
REMOVED = {
    bounds: ("BoundQuery", "effective_tail_bound", "mcdiarmid_bound", "McDiarmidCoefficients"),
    model: (
        "SupportMask", "sample_mask", "special_form", "FormKind", "SpecialForm",
        "dft_atom", "evaluate", "trig_sums", "_kahan_sum",
    ),
    montecarlo: (
        "mc_exp_moment", "snapshot", "_collect_part_values", "_moment_sum",
        "DEFAULT_WORK_CEILING", "_check_work", "_draw_masks", "_batch_part_values",
        "_batch_chunks", "_run_batch", "merge_tree", "_TreeFold", "_batches",
        "_substream", "_stream", "_unit_stream",
    ),
    cli: (
        "BoundReport", "tail_bound_report", "_map_points", "_package_version",
        "_exact_mean_modulus", "_map_ordered",
    ),
    oracle: ("_group_real", "_group_complex", "_group_ids", "GROUPING_MARGIN", "exact_tail"),
}
REMOVED_ATTRIBUTES = {
    model.ModelParams: ("p", "is_dc"),
    oracle.ExactDistribution: ("atoms", "to_json", "to_json_dict"),
}
REMOVED_FIELDS = {
    cli.RunConfig: ("mc_batch",),
    montecarlo.McConfig: ("batch",),
    montecarlo.McQueries: ("exp_scales",),
    oracle._Law: ("spread", "gap"),
    montecarlo.Accumulator: (
        "sum_re", "sum_im", "sum_sq_re", "sum_sq_im", "sum_mod", "sum_sq_mod",
        "moment_sums", "exp_sums", "exp_sq_sums",
    ),
}


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from spectral_mask import *", namespace)
    assert set(spectral_mask.__all__) <= set(namespace)


def test_all_matches_the_import_block():
    assert len(spectral_mask.__all__) == len(set(spectral_mask.__all__))
    imported = {
        name
        for name, value in vars(spectral_mask).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert imported == set(spectral_mask.__all__)


@pytest.mark.parametrize("module", list(REMOVED), ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    for name in REMOVED[module]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name not in spectral_mask.__all__


def test_removed_attributes_are_gone():
    for cls, names in REMOVED_ATTRIBUTES.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    for cls, names in REMOVED_FIELDS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert fields.isdisjoint(names), cls.__name__


@pytest.mark.parametrize("fn", [montecarlo.mc_run, montecarlo.mc_psi2], ids=lambda f: f.__name__)
def test_no_work_ceiling(fn):
    assert "work_ceiling" not in inspect.signature(fn).parameters


def test_readme_names_the_algorithm_tags():
    # summary.json records these tags; a tag bump must move the README's
    # description of the scheme with it.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for tag in (montecarlo.RNG_ALGORITHM, montecarlo.MC_ALGORITHM, oracle.LAW_ALGORITHM):
        assert f"`{tag}`" in readme, tag


def test_version_matches_pyproject():
    # summary.json records __version__, so it must be the released version
    # however the package was installed.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        version = tomllib.loads(text)["project"]["version"]
    else:
        version = re.search(r'(?m)^version = "([^"]+)"', text).group(1)
    assert spectral_mask.__version__ == version
