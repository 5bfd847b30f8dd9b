import importlib
import inspect


def test_every_audit_row_names_the_test_it_reruns():
    # a row's id is the node id of a test function, so that the table
    # points at the gate it reruns; seed_audit imports the test modules,
    # so it is imported here and not at collection
    import seed_audit

    for test, *_ in seed_audit.AUDITS:
        module, *path = test.split("::")
        target = importlib.import_module(module)
        for name in path:
            target = getattr(target, name)
        assert inspect.isfunction(target) and target.__name__.startswith("test_"), test
