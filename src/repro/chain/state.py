"""World state: account balances/nonces plus per-contract storage, journaled.

Every write — an account field, a storage slot at any nesting depth, an
emitted event — appends one undo record to a :class:`Journal` while a
checkpoint is open.  Rolling back replays the records in reverse, so a
reverted transaction costs what it wrote and a read-only query costs nothing
beyond the call itself, however many pages, holders or ads the chain holds.
That a reverting call leaves no partial write behind is the property the
incentive contracts rely on for conservation of honey.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.errors import InsufficientFundsError
from repro.chain.account import Account


class Journal:
    """Undo log shared by everything a transaction can write.

    ``checkpoint()`` opens a scope and returns a mark; ``rollback(mark)``
    undoes every write made since and ``commit()`` keeps them — each closes
    the scope.  Scopes nest; records are kept only while one is open and
    dropped when the outermost closes.  ``recorded`` counts every record ever
    kept (tests read it to show a view call writes nothing).
    """

    __slots__ = ("_undo", "_open", "recorded")

    def __init__(self) -> None:
        self._undo: List[Tuple[Callable[..., Any], tuple]] = []
        self._open = 0
        self.recorded = 0

    def record(self, undo: Callable[..., Any], *args: Any) -> None:
        """Remember that ``undo(*args)`` reverses the write about to happen."""
        if self._open:
            self._undo.append((undo, args))
            self.recorded += 1

    def checkpoint(self) -> int:
        self._open += 1
        return len(self._undo)

    def rollback(self, mark: int) -> None:
        undo_log = self._undo
        while len(undo_log) > mark:
            undo, args = undo_log.pop()
            undo(*args)
        self.commit()

    def commit(self) -> None:
        self._open -= 1
        if not self._open:
            self._undo.clear()


def _unjournaled(self: Any, *args: Any, **kwargs: Any) -> None:
    raise TypeError(
        f"{type(self).__name__} journals item assignment, setdefault, append and add only; "
        "any other mutation could not be rolled back"
    )


class JournaledDict(dict):
    """A dict whose writes are journaled; containers stored in it are wrapped too.

    Storing a plain dict/list/set stores a journaling *copy*: read the value
    back from storage (``setdefault`` returns it) before mutating it further.
    """

    __slots__ = ("_journal",)

    def __init__(self, items: Dict[Any, Any], journal: Journal) -> None:
        self._journal = journal
        dict.__init__(self, {key: _wrap(value, journal) for key, value in items.items()})

    def __setitem__(self, key: Any, value: Any) -> None:
        if key in self:
            self._journal.record(dict.__setitem__, self, key, dict.__getitem__(self, key))
        else:
            self._journal.record(dict.__delitem__, self, key)
        dict.__setitem__(self, key, _wrap(value, self._journal))

    def setdefault(self, key: Any, default: Any = None) -> Any:
        if key not in self:
            self[key] = default
        return dict.__getitem__(self, key)

    __delitem__ = pop = popitem = clear = update = __ior__ = _unjournaled


class JournaledList(list):
    """A list that can only grow by ``append`` (undone by popping)."""

    __slots__ = ("_journal",)

    def __init__(self, items: List[Any], journal: Journal) -> None:
        self._journal = journal
        list.__init__(self, [_wrap(value, journal) for value in items])

    def append(self, value: Any) -> None:
        self._journal.record(list.pop, self)
        list.append(self, _wrap(value, self._journal))

    __setitem__ = __delitem__ = __iadd__ = __imul__ = extend = insert = _unjournaled
    pop = remove = clear = sort = reverse = _unjournaled


class JournaledSet(set):
    """A set that can only grow by ``add``."""

    __slots__ = ("_journal",)

    def __init__(self, items: set, journal: Journal) -> None:
        self._journal = journal
        set.__init__(self, items)

    def add(self, value: Any) -> None:
        if value not in self:
            self._journal.record(set.discard, self, value)
            set.add(self, value)

    discard = remove = pop = clear = update = __ior__ = __iand__ = __isub__ = _unjournaled
    __ixor__ = difference_update = intersection_update = symmetric_difference_update = _unjournaled


_JOURNALED = {dict: JournaledDict, list: JournaledList, set: JournaledSet}


def _wrap(value: Any, journal: Journal) -> Any:
    wrapper = _JOURNALED.get(type(value))
    return value if wrapper is None else wrapper(value, journal)


class WorldState:
    """All mutable on-chain data, behind one journal."""

    def __init__(self) -> None:
        self.journal = Journal()
        self.accounts: Dict[str, Account] = JournaledDict({}, self.journal)
        self.contract_storage: Dict[str, Dict[str, Any]] = JournaledDict({}, self.journal)

    def get_account(self, address: str) -> Account:
        """Fetch an account, creating it with a zero balance on first touch."""
        account = self.accounts.get(address)
        if account is None:
            account = Account(address=address)
            self.accounts[address] = account
        return account

    def credit(self, address: str, amount: int) -> None:
        """Add native currency to an account (minting / block rewards)."""
        if amount < 0:
            raise InsufficientFundsError(f"cannot credit a negative amount {amount!r}")
        account = self.get_account(address)
        self._write(account, "balance", account.balance + amount)

    def transfer(self, sender: str, recipient: str, amount: int) -> None:
        """Move native currency between accounts, raising if funds are short."""
        if amount < 0:
            raise InsufficientFundsError(f"cannot transfer a negative amount {amount!r}")
        src = self.get_account(sender)
        if not src.can_spend(amount):
            raise InsufficientFundsError(
                f"{sender!r} holds {src.balance} but tried to transfer {amount}"
            )
        self._write(src, "balance", src.balance - amount)
        dst = self.get_account(recipient)
        self._write(dst, "balance", dst.balance + amount)

    def bump_nonce(self, address: str) -> None:
        """Consume one nonce of ``address`` (every executed transaction does)."""
        account = self.get_account(address)
        self._write(account, "nonce", account.nonce + 1)

    def storage_for(self, contract_name: str) -> Dict[str, Any]:
        """The private key/value storage of one contract."""
        return self.contract_storage.setdefault(contract_name, {})

    def total_native_supply(self) -> int:
        """Sum of every account balance (conservation checks in tests)."""
        return sum(account.balance for account in self.accounts.values())

    def _write(self, account: Account, field: str, value: int) -> None:
        self.journal.record(setattr, account, field, getattr(account, field))
        setattr(account, field, value)
