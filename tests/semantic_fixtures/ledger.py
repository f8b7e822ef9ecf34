"""Golden fixture: a container class with a self-call.

`Store.put_many` reaches `put` through a self-call; `drop` returns
early past a guard clause.  The symbol-table golden test pins their
extracted summaries.
"""


class Store:
    def __init__(self) -> None:
        self.items: dict[str, int] = {}

    def put(self, key: str, value: int) -> None:
        self.items[key] = value

    def put_many(self, pairs) -> None:
        for key, value in pairs:
            self.put(key, value)

    def drop(self, key: str) -> None:
        if key not in self.items:
            return
        del self.items[key]
