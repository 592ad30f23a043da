// Fixture: rule P1 (clippy's panic-family lints) must flag every panic
// vector in a protocol path.
pub fn deliver(queue: &mut Vec<Option<u32>>) -> u32 {
    let slot = queue.pop().unwrap();
    let payload = slot.expect("queued slots hold payloads");
    if payload == 0 {
        panic!("zero payload");
    }
    if payload == 1 {
        todo!("retransmission");
    }
    if payload == 2 {
        unreachable!("filtered earlier");
    }
    if payload == 3 {
        unimplemented!("multicast");
    }
    payload
}
