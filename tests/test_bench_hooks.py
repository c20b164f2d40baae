"""The benchmark's traced run wraps csti names; each must still resolve.

``bench/tracer.py`` looks a class attribute up in the class's own
``__dict__`` and a module attribute up with ``getattr``. A name that
moves (a method hoisted into a base class, an import dropped) breaks the
traced run with a KeyError or AttributeError, so this test loads
``bench/layers.py`` unchanged and resolves every entry the same way.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from csti import data, experiment, metrics, models, training
from csti.models import MODEL_KINDS, ForecastModel

from conftest import write_series_csv

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
WORKLOADS = LAYERS.with_name("workloads.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves_as_the_tracer_looks_it_up():
    layers = _load_layers()
    entries = [(owner, attr) for owner, attr, *_ in layers.patch_points()]
    entries += [(owner, attr) for owner, attr, _ in layers.COUNTED]
    for owner, attr in entries:
        if isinstance(owner, type):
            assert callable(owner.__dict__.get(attr)), f"{owner.__name__}.{attr} not defined on the class"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} missing"


def test_every_model_kind_is_a_direct_subclass():
    # the traced run wraps predict_batch on each direct subclass only
    assert {cls.kind for cls in ForecastModel.__subclasses__()} == set(MODEL_KINDS)


def test_csv_market_loads_through_the_data_modules_loader(tmp_path, monkeypatch):
    # the traced run counts CSV ingest by wrapping data.load_csv_detailed alone
    paths = []
    for series in data.generate_synthetic_market(2, 80, 0.5, seed=3):
        paths.append(str(tmp_path / f"{series.stock_id}.csv"))
        write_series_csv(series, paths[-1])
    calls, load = [], data.load_csv_detailed

    def counting(path, *args, **kwargs):
        calls.append(str(path))
        return load(path, *args, **kwargs)
    monkeypatch.setattr(data, "load_csv_detailed", counting)
    spec = experiment.validate_spec_dict({"out_dir": str(tmp_path / "out"), "models": ["dlinear"],
                                          "strategies": ["normal"],
                                          "data": {"source": "csv", "paths": paths}})
    market = experiment._load_market(spec)
    assert calls == paths and len(market) == 2


def test_every_call_the_workloads_make_into_csti_binds_to_its_signature():
    # the bench's files do not change with the code they time, so a signature
    # change (a parameter renamed, moved or dropped) must fail here, not only there
    modules = {"data": data, "experiment": experiment, "metrics": metrics, "models": models,
               "training": training}
    called = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            name = f"{node.func.value.id}.{node.func.attr}"
            assert not any(isinstance(arg, ast.Starred) for arg in node.args), name
            assert all(kw.arg is not None for kw in node.keywords), name
            function = getattr(modules[node.func.value.id], node.func.attr)
            inspect.signature(function).bind(*node.args, **{kw.arg: kw for kw in node.keywords})
            called.add(name)
    assert called >= {"training.CstiConfig", "training.run_csti", "experiment.validate_spec",
                      "experiment.run_experiment"}
