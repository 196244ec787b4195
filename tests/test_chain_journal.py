"""The journaled chain state against the oracle it replaced: a pickled copy of the world.

Before ISSUE 15 every transaction and every read-only query began with
``pickle.loads(pickle.dumps(world_state))`` and a revert swapped the copy back
in.  The journal undoes only what a call wrote; the pickled pre-state lives on
here as the oracle — after a failed transaction the world must equal it plus
exactly fee + nonce, after any query it must equal it exactly.
"""

from __future__ import annotations

import ast
import pickle
from pathlib import Path
from typing import Any

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro.chain
import repro.contracts
from repro.chain.blockchain import Blockchain
from repro.chain.transaction import Transaction
from repro.contracts.queenbee import QueenBeeContracts
from repro.errors import ContractError, InvalidTransactionError
from repro.sim.simulator import Simulator


def plain(value: Any) -> Any:
    """Storage as builtin containers, order kept (sets sorted), ready to pickle."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def world(chain: Blockchain) -> dict:
    """Everything a transaction can write, through a pickle round trip."""
    return pickle.loads(pickle.dumps({
        "accounts": {address: [account.balance, account.nonce]
                     for address, account in chain.state.accounts.items()},
        "storage": plain(chain.state.contract_storage),
        "events": [(e.contract, e.name, plain(e.data), e.block_number, e.tx_id)
                   for e in chain.events],
    }))


def same(actual: dict, expected: dict) -> bool:
    """Equal, key order included (dict ``==`` alone ignores it)."""
    return actual == expected and repr(actual) == repr(expected)


def deploy(**options: Any) -> QueenBeeContracts:
    chain = Blockchain(Simulator(seed=3), validators=["validator-0"], auto_mine=True)
    return QueenBeeContracts.deploy(chain, **options)


CREATORS = ("alice", "bob", "mallory")
WORKERS = ("worker-0", "worker-1", "ghost")  # ghost never registers
ADVERTISERS = ("adv-0", "adv-1")
PEOPLE = CREATORS + WORKERS + ADVERTISERS
URLS = tuple(f"dweb://site/{i}" for i in range(4))
CIDS = tuple(f"bafy-{i}" for i in range(4))
WORDS = ("honey", "bees", "search")
VIEWS = (
    ("honey", "holders", {}), ("honey", "total_supply", {}),
    ("honey", "balance_of", {"owner": "alice"}),
    ("registry", "page_count", {}), ("registry", "all_pages", {}),
    ("registry", "get_page", {"url": URLS[0]}), ("registry", "pages_of", {"owner": "bob"}),
    ("workers", "active_workers", {}), ("workers", "total_stake", {}),
    ("workers", "is_active", {"worker": "worker-1"}),
    ("ads", "ads_for", {"keyword": "honey"}), ("ads", "revenue_summary", {}),
    ("rewards", "rewarded_total", {}),
)
MUTATORS = (  # queried, never sent: the would-be result comes back, the state stays
    ("registry", "publish", {"url": "dweb://query-only", "cid": "bafy-query"}),
    ("registry", "publish", {"url": URLS[0], "cid": CIDS[1]}),
    ("honey", "transfer", {"to": "alice", "amount": 1}),
    ("honey", "mint", {"to": "alice", "amount": 5}),
    ("ads", "record_click", {"ad_id": 1, "creator": "alice", "worker": "worker-0"}),
    ("workers", "add_operator", {"operator": "query"}),
)


class ChainAgainstPickledOracle(RuleBasedStateMachine):
    @initialize()
    def deploy_suite(self):
        self.suite = deploy()
        self.chain = self.suite.chain
        for person in PEOPLE:
            self.chain.fund_account(person, 10**7)
        for worker in WORKERS[:2]:
            assert self.suite.register_worker(worker, 1_000)
        self.native_supply = self.chain.state.total_native_supply()

    def send(self, sender, contract=None, method=None, value=0, to=None, **args):
        """One transaction, checked against the pickled pre-state."""
        before = world(self.chain)
        tx = Transaction(sender=sender, nonce=self.chain.next_nonce(sender), contract=contract,
                         method=method, args=args, to=to, value=value)
        try:
            receipt = self.chain.submit(tx)
        except InvalidTransactionError:  # refused at the door: nothing happened
            assert same(world(self.chain), before)
            return None
        after = world(self.chain)
        assert after["accounts"][sender][1] == before["accounts"][sender][1] + 1
        if not receipt.success:
            before["accounts"][sender][0] -= receipt.gas_fee
            before["accounts"][sender][1] += 1
            before["accounts"]["validator-0"][0] += receipt.gas_fee
            assert same(after, before), receipt.error
        return receipt

    @rule(creator=st.sampled_from(CREATORS), url=st.sampled_from(URLS), cid=st.sampled_from(CIDS))
    def publish(self, creator, url, cid):
        receipt = self.send(creator, "registry", "publish", url=url, cid=cid)
        if receipt.success:  # what QueenBeeContracts.publish_page does next
            assert self.send(self.suite.admin, "rewards", "reward_publish", creator=creator).success

    @rule(worker=st.sampled_from(WORKERS))
    def reward_task(self, worker):
        minted = self.chain.query("honey", "total_supply")
        receipt = self.send(self.suite.admin, "rewards", "reward_task", worker=worker,
                            task_type="index")
        assert receipt.success == self.chain.query("workers", "is_active", worker=worker)
        # A slashed worker's mint happened before record_task reverted; it is gone.
        assert self.chain.query("honey", "total_supply") == minted + (5 if receipt.success else 0)

    @rule(worker=st.sampled_from(WORKERS), amount=st.sampled_from((1, 400, 1_000)))
    def slash(self, worker, amount):
        self.send(self.suite.admin, "workers", "slash", worker=worker, amount=amount, reason="test")

    @rule(advertiser=st.sampled_from(ADVERTISERS),
          keywords=st.lists(st.sampled_from(WORDS), max_size=2),
          bid=st.sampled_from((0, 40, 100)), budget=st.sampled_from((30, 100, 250)))
    def place_ad(self, advertiser, keywords, bid, budget):
        self.send(advertiser, "ads", "place_ad", value=budget, keywords=keywords, bid_per_click=bid)

    @rule(ad_id=st.integers(1, 4), creator=st.sampled_from(CREATORS))
    def click(self, ad_id, creator):
        self.send(self.suite.admin, "ads", "record_click", ad_id=ad_id, creator=creator,
                  worker="worker-0")

    @rule(ad_id=st.integers(1, 4), sender=st.sampled_from(ADVERTISERS))
    def withdraw(self, ad_id, sender):
        self.send(sender, "ads", "withdraw_remaining", ad_id=ad_id)

    @rule(sender=st.sampled_from(PEOPLE), to=st.sampled_from(PEOPLE),
          amount=st.sampled_from((0, 3, 10, 10**6)))
    def honey_transfer(self, sender, to, amount):
        self.send(sender, "honey", "transfer", to=to, amount=amount)

    @rule(sender=st.sampled_from(PEOPLE), to=st.sampled_from(PEOPLE + ("newcomer",)),
          amount=st.sampled_from((0, 1_000, 10**9)))
    def native_transfer(self, sender, to, amount):
        self.send(sender, to=to, value=amount)

    @rule(call=st.sampled_from(VIEWS + MUTATORS))
    def query(self, call):
        contract, method, args = call
        before = world(self.chain)
        writes = self.chain.state.journal.recorded
        try:
            self.chain.query(contract, method, **args)
        except ContractError:  # a reverting query must leave no trace either
            pass
        assert same(world(self.chain), before)
        if call in VIEWS:  # at most the contract's storage and one still-empty table, undone above
            assert self.chain.state.journal.recorded - writes <= 2

    @invariant()
    def supplies_are_conserved(self):
        assert self.chain.state.total_native_supply() == self.native_supply
        honey = self.chain.state.storage_for("honey")
        assert honey.get("total_supply", 0) == sum(honey.get("balances", {}).values())

    @invariant()
    def no_scope_is_left_open(self):
        journal = self.chain.state.journal
        mark = journal.checkpoint()
        journal.commit()
        assert mark == 0


ChainAgainstPickledOracle.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestChainAgainstPickledOracle = ChainAgainstPickledOracle.TestCase


def test_queries_on_a_fresh_suite_leave_no_empty_tables():
    suite = deploy()
    before = world(suite.chain)
    for contract, method, args in VIEWS:
        suite.chain.query(contract, method, **args)
    assert same(world(suite.chain), before)
    assert "registry" not in suite.chain.state.contract_storage


# -- events follow the state ------------------------------------------------------------------


def test_reverted_reward_leaves_no_mint_event():
    suite = deploy()
    chain = suite.chain
    chain.fund_account("worker-0", 10**6)
    assert suite.register_worker("worker-0", 1_000)
    assert suite.reward_worker_task("worker-0", "index")
    suite.slash_worker("worker-0", 1_000, "bad rank vector")
    events, rewarded = len(chain.events), chain.query("rewards", "rewarded_total")

    assert not suite.reward_worker_task("worker-0", "index")  # mints, then record_task reverts

    assert len(chain.events) == events
    assert [e.data["to"] for e in chain.vm.events_named("Mint")] == ["worker-0"]
    assert chain.query("rewards", "rewarded_total") == rewarded == 5
    assert suite.honey_balance("worker-0") == 5


# -- cost follows the write set, not the state ------------------------------------------------


def chain_with_pages(count: int) -> Blockchain:
    suite = deploy()
    suite.chain.fund_account("alice", 10**9)
    suite.chain.fund_account("bob", 10**9)
    for i in range(count):
        assert suite.chain.call("alice", "registry", "publish", url=f"u{i}", cid=f"c{i}").success
    suite.chain.call(suite.admin, "honey", "mint", to="alice", amount=1)
    assert suite.register_worker("bob", 1_000)
    return suite.chain


def test_journal_records_do_not_scale_with_state():
    written = {}
    for pages in (10, 1_000):
        chain = chain_with_pages(pages)
        journal = chain.state.journal
        recorded = journal.recorded
        assert chain.query("registry", "page_count") == pages
        assert chain.query("registry", "get_page", url="u3")["cid"] == "c3"
        assert chain.query("registry", "pages_of", owner="alice")[:2] == ["u0", "u1"]
        assert chain.query("honey", "balance_of", owner="alice") == 1
        assert chain.query("workers", "active_workers") == ["bob"]
        assert journal.recorded == recorded, "a view call wrote to the journal"
        assert chain.call("alice", "registry", "publish", url="one-more", cid="c-more").success
        assert not chain.call("bob", "registry", "publish", url="u3", cid="c-bob").success
        assert not chain.call("bob", "registry", "publish", url="bobs", cid="c3").success
        assert chain.query("registry", "publish", url="query-only", cid="c-query")["version"] == 1
        written[pages] = journal.recorded - recorded
    assert written[10] == written[1_000] > 0


@pytest.mark.parametrize("package", [repro.chain, repro.contracts])
def test_chain_source_copies_nothing(package):
    """pickle-the-world and deepcopy stay out of the chain: the oracle above is their only home."""
    for path in sorted(Path(package.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not {name.split(".")[0] for name in names} & {"pickle", "copy"}, path.name
