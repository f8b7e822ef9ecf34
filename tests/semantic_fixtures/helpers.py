"""Golden fixture: the callee of a cross-module call edge."""


def mutate_store(store) -> None:
    store.items.update({"x": 1})
