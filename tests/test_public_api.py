"""Public API surface tests."""

import doctest

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_service_exports_are_pinned():
    import repro.service

    assert sorted(repro.service.__all__) == [
        "ArtifactStore",
        "InProcessClient",
        "ServiceConfig",
        "ServiceServer",
        "ServiceThread",
        "SessionHandle",
        "ShardedClient",
        "ShardedService",
        "SharedPlanCache",
        "SocketClient",
        "TopKService",
        "serve",
    ]
    for name in repro.service.__all__:
        assert hasattr(repro.service, name), name


def test_version():
    assert repro.__version__.count(".") == 2


def test_package_docstring_example():
    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


def test_subpackage_imports():
    import repro.api
    import repro.cli
    import repro.datagen
    import repro.experiments
    import repro.lp
    import repro.network
    import repro.planners
    import repro.plans
    import repro.queries
    import repro.query
    import repro.sampling
    import repro.service
    import repro.simulation
    import repro.stochastic

    for module in (
        repro.lp,
        repro.network,
        repro.plans,
        repro.planners,
        repro.sampling,
        repro.simulation,
        repro.datagen,
        repro.queries,
        repro.query,
        repro.service,
        repro.api,
        repro.stochastic,
        repro.experiments,
        repro.cli,
    ):
        assert module.__doc__


def test_api_facade_docstring_example():
    import repro.api

    results = doctest.testmod(repro.api, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


def test_lp_docstring_example():
    import repro.lp

    results = doctest.testmod(repro.lp, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0
